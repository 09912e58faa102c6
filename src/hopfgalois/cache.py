"""On-disk caches: catalogues, analysis reports, summaries, fixtures.

Every cache file carries (grouplib_version, algorithm_version); a mismatch
invalidates the file so stale enumerations are never reused across
algorithm changes.  A catalogue file also carries a CRC-32 of its bytes,
so one damaged by accident is rebuilt rather than trusted.
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
# Hol(N) classes) and of report logs
CACHE_FORMAT_VERSION = 2
LOG_FORMAT_VERSION = 1

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


def _write_atomic(path: Path, text: str):
    """Write beside the target, then rename: readers never see half a file."""
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def catalogue_path(cache_dir: Path, degree: int, type_label: str) -> Path:
    safe = type_label.replace("/", "_").replace(".", "-")
    return cache_dir / f"catalogue_deg{degree}_{safe}.json"


# a catalogue file opens with the CRC-32 of the bytes after this head
_CRC_HEAD = '{"crc32": "%08x",'
_CRC_HEAD_LEN = len(_CRC_HEAD % 0)


def write_catalogue_file(cache_dir: Path, degree: int, type_label: str, payload: dict):
    """One JSON object: the CRC head, then the stamp and ``payload``."""
    obj = _stamp(CACHE_FORMAT_VERSION)
    obj.update(payload)
    body = json.dumps(obj, indent=1, sort_keys=True)[1:]  # past its "{"
    path = catalogue_path(cache_dir, degree, type_label)
    _write_atomic(path, _CRC_HEAD % zlib.crc32(body.encode()) + body)


def read_catalogue_file(cache_dir: Path, degree: int, type_label: str, decode):
    """``decode`` of the file's object; None for a missing, stale or
    damaged file (bytes past the head whose CRC-32 is not the head's, no
    JSON object, an object that ``decode`` rejects), so the type is
    rebuilt.  The CRC is checked on the bytes as read, so what ``decode``
    sees is what was written, values included."""
    try:  # a missing file raises OSError, bad JSON or bytes a ValueError
        raw = catalogue_path(cache_dir, degree, type_label).read_bytes()
        if raw[:_CRC_HEAD_LEN] != (_CRC_HEAD % zlib.crc32(raw[_CRC_HEAD_LEN:])).encode():
            return None
        obj = json.loads(raw)
        return decode(obj) if stamp_valid(obj, CACHE_FORMAT_VERSION) else None
    except (OSError, *_DECODE_ERRORS):
        return None


def reports_path(cache_dir: Path, degree: int) -> Path:
    return cache_dir / f"reports_deg{degree}.jsonl"


def _line(record: dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def append_report_line(cache_dir: Path, degree: int, record: dict):
    with reports_path(cache_dir, degree).open("a") as fh:
        fh.write(_line(record))


def read_report_lines(cache_dir: Path, degree: int) -> list[dict]:
    """The log's lines up to the first that does not decode or parse, such
    as the torn last line a killed run leaves."""
    path = reports_path(cache_dir, degree)
    if not path.exists():
        return []
    out = []
    for line in path.read_bytes().splitlines():
        try:
            out.append(json.loads(line.decode()))
        except ValueError:  # JSONDecodeError and UnicodeDecodeError
            break
    return out


def open_report_log(cache_dir: Path, degree: int, resume: bool, decode) -> list:
    """Rewrite the log (a stamp, then a line per finished entry) and
    return ``decode`` of each entry line kept: with ``resume``, those of a
    log with a valid stamp, up to one that is torn or does not decode;
    otherwise none."""
    lines = read_report_lines(cache_dir, degree) if resume else []
    decoded = []
    for line in lines[1:] if lines and stamp_valid(lines[0]) else ():
        try:
            decoded.append(decode(line))
        except _DECODE_ERRORS:
            break
    kept = lines[1:1 + len(decoded)]
    _write_atomic(reports_path(cache_dir, degree), "".join(map(_line, [_stamp(), *kept])))
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
    _write_atomic(fixtures_path(cache_dir), json.dumps(fixtures, indent=1, sort_keys=True))
    return True, None
