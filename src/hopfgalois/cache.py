"""On-disk caches: catalogues, analysis reports, summaries, fixtures.

Every cache file carries (grouplib_version, algorithm_version); a mismatch
invalidates the file so stale enumerations are never reused across
algorithm changes.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from pathlib import Path

from .errors import PreconditionError

GROUPLIB_VERSION = "1"
ALGORITHM_VERSION = "1"
CACHE_FORMAT_VERSION = 1

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


def _stamp() -> dict:
    return {
        "version": CACHE_FORMAT_VERSION,
        "grouplib_version": GROUPLIB_VERSION,
        "algorithm_version": ALGORITHM_VERSION,
    }


def stamp_valid(obj) -> bool:
    return isinstance(obj, dict) and all(obj.get(k) == v for k, v in _stamp().items())


def _write_atomic(path: Path, text: str):
    """Write beside the target, then rename: readers never see half a file."""
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def catalogue_path(cache_dir: Path, degree: int, type_label: str) -> Path:
    safe = type_label.replace("/", "_").replace(".", "-")
    return cache_dir / f"catalogue_deg{degree}_{safe}.json"


def write_catalogue_file(cache_dir: Path, degree: int, type_label: str, payload: dict):
    obj = dict(_stamp())
    obj.update(payload)
    path = catalogue_path(cache_dir, degree, type_label)
    _write_atomic(path, json.dumps(obj, indent=1, sort_keys=True))


def read_catalogue_file(cache_dir: Path, degree: int, type_label: str, decode) -> list | None:
    """``decode`` of each entry of the file; None for a missing, stale or
    damaged one (no JSON object, no entry list, an entry that does not
    decode), so the type is rebuilt."""
    try:  # a missing file raises OSError, bad JSON or bytes a ValueError
        obj = json.loads(catalogue_path(cache_dir, degree, type_label).read_text())
        return [decode(rec) for rec in obj["entries"]] if stamp_valid(obj) else None
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
