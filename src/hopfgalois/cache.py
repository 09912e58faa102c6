"""On-disk caches: catalogues, analysis reports, summaries, fixtures.

Every cache file carries (grouplib_version, algorithm_version); a mismatch
invalidates the file so stale enumerations are never reused across
algorithm changes.  A catalogue file and each report-log line also carry
a CRC-32 of their bytes, so one damaged by accident is rebuilt or redone
rather than trusted.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
import zlib
from pathlib import Path

from .errors import PreconditionError

GROUPLIB_VERSION = "1"
ALGORITHM_VERSION = "1"
# the format versions of catalogue files (2 added the CRC head and the
# Hol(N) classes) and of report logs (2 added the CRC head per line)
CACHE_FORMAT_VERSION = 2
LOG_FORMAT_VERSION = 2

ENV_CACHE_DIR = "HOPFGALOIS_CACHE_DIR"

# what decoding a record that parses but has the wrong shape raises
_DECODE_ERRORS = (LookupError, TypeError, ValueError, PreconditionError)


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hopfgalois"


def resolve_cache_dir(cache_dir=None) -> Path:
    path = Path(cache_dir) if cache_dir else default_cache_dir()
    path.mkdir(parents=True, exist_ok=True)
    return path


def _stamp(version: int = LOG_FORMAT_VERSION) -> dict:
    return {
        "version": version,
        "grouplib_version": GROUPLIB_VERSION,
        "algorithm_version": ALGORITHM_VERSION,
    }


def stamp_valid(obj, version: int = LOG_FORMAT_VERSION) -> bool:
    return isinstance(obj, dict) and all(obj.get(k) == v for k, v in _stamp(version).items())


def _write_atomic(path: Path, data: bytes):
    """Write beside the target, then rename: readers never see half a file."""
    tmp = path.with_suffix(".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


def catalogue_path(cache_dir: Path, degree: int, type_label: str) -> Path:
    safe = type_label.replace("/", "_").replace(".", "-")
    return cache_dir / f"catalogue_deg{degree}_{safe}.json"


# a catalogue file and a report-log line open with the CRC-32 of the
# bytes after this head
_CRC_HEAD = '{"crc32": "%08x",'
_CRC_HEAD_LEN = len(_CRC_HEAD % 0)


def _framed(obj: dict, indent=None) -> str:
    """The JSON object ``obj`` (nonempty) behind a CRC head."""
    body = json.dumps(obj, indent=indent, sort_keys=True)[1:]  # past its "{"
    return _CRC_HEAD % zlib.crc32(body.encode()) + body


def _unframed(raw: bytes) -> dict:
    """The object of bytes that ``_framed`` wrote, checked on the bytes as
    read; ValueError when the CRC is not the head's or they do not parse."""
    if raw[:_CRC_HEAD_LEN] != (_CRC_HEAD % zlib.crc32(raw[_CRC_HEAD_LEN:])).encode():
        raise ValueError("CRC-32 mismatch")
    return json.loads(raw)


def write_catalogue_file(cache_dir: Path, degree: int, type_label: str, payload: dict):
    """One JSON object: the CRC head, then the stamp and ``payload``."""
    obj = _stamp(CACHE_FORMAT_VERSION)
    obj.update(payload)
    _write_atomic(catalogue_path(cache_dir, degree, type_label), _framed(obj, indent=1).encode())


def read_catalogue_file(cache_dir: Path, degree: int, type_label: str, decode):
    """``decode`` of the file's object; None for a missing, stale or
    damaged file (bytes past the head whose CRC-32 is not the head's, no
    JSON object, an object that ``decode`` rejects), so the type is
    rebuilt.  The CRC is checked on the bytes as read, so what ``decode``
    sees is what was written, values included."""
    try:  # a missing file raises OSError, a bad CRC, JSON or bytes a ValueError
        obj = _unframed(catalogue_path(cache_dir, degree, type_label).read_bytes())
        return decode(obj) if stamp_valid(obj, CACHE_FORMAT_VERSION) else None
    except (OSError, *_DECODE_ERRORS):
        return None


def reports_path(cache_dir: Path, degree: int) -> Path:
    return cache_dir / f"reports_deg{degree}.jsonl"


def append_report_line(cache_dir: Path, degree: int, record: dict):
    with reports_path(cache_dir, degree).open("a") as fh:
        fh.write(_framed(record) + "\n")


def read_report_lines(cache_dir: Path, degree: int) -> list[tuple[dict, bytes]]:
    """The log's records, each with its line as read (without the line
    break), up to the first line whose CRC fails or that does not parse,
    such as the torn last line a killed run leaves."""
    path = reports_path(cache_dir, degree)
    if not path.exists():
        return []
    out = []
    for line in path.read_bytes().splitlines():
        try:
            out.append((_unframed(line), line))
        except ValueError:  # a bad CRC, JSONDecodeError and UnicodeDecodeError
            break
    return out


def open_report_log(cache_dir: Path, degree: int, resume: bool, decode) -> list:
    """Rewrite the log (a stamp, then a line per finished entry, each kept
    line byte for byte) and return ``decode`` of each entry line kept: with
    ``resume``, those of a log with a valid stamp, up to one that is torn,
    fails its CRC or does not decode; otherwise none."""
    lines = read_report_lines(cache_dir, degree) if resume else []
    decoded = []
    for record, _ in lines[1:] if lines and stamp_valid(lines[0][0]) else ():
        try:
            decoded.append(decode(record))
        except _DECODE_ERRORS:
            break
    kept = b"".join(line + b"\n" for _, line in lines[1:1 + len(decoded)])
    _write_atomic(reports_path(cache_dir, degree), (_framed(_stamp()) + "\n").encode() + kept)
    return decoded


def summary_csv(rows) -> str:
    """Degree summary rows in Table-4 column order."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["Degree", "TransClasses", "NoHGS"])
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


# -- derived-value fixture store -------------------------------------------


def fixtures_path(cache_dir: Path) -> Path:
    return cache_dir / "fixtures.json"


def load_fixtures(cache_dir: Path) -> dict:
    """The stored fixtures; a missing or damaged store (bytes that do not
    decode or parse, no JSON object, an entry without a value) reads as
    empty and is seeded afresh."""
    try:  # a missing file raises OSError, bad JSON or bytes a ValueError
        fixtures = json.loads(fixtures_path(cache_dir).read_bytes())
    except (OSError, ValueError):
        return {}
    if not isinstance(fixtures, dict):
        return {}
    if not all(isinstance(e, dict) and "value" in e for e in fixtures.values()):
        return {}
    return fixtures


def record_fixture(cache_dir: Path, key: str, value) -> tuple[bool, dict | None]:
    """Store a derived value with a provenance stamp on first computation.

    Returns (matches_previous, previous_entry).  A freshly seeded value
    always matches.
    """
    fixtures = load_fixtures(cache_dir)
    prev = fixtures.get(key)
    if prev is not None:
        return prev["value"] == value, prev
    entry = {
        "value": value,
        "computed_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "grouplib_version": GROUPLIB_VERSION,
        "algorithm_version": ALGORITHM_VERSION,
    }
    fixtures[key] = entry
    _write_atomic(fixtures_path(cache_dir), json.dumps(fixtures, indent=1, sort_keys=True).encode())
    return True, None
