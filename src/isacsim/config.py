"""Flat dotted-key config files: reading and hashing.

Format: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored. Keys are dotted paths (``radio.fft_size``). Values are parsed as
JSON when possible (numbers, booleans, quoted strings, lists) and fall back
to bare strings. The accepted keys and their types are listed once, in
``experiments.KNOWN_KEYS``, and ``experiments.check_config`` is the one
validator of a parsed mapping.
"""

import hashlib
import json


class ConfigError(Exception):
    """Raised for malformed or unknown configuration input."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def parse_value(text):
    text = text.strip()
    try:
        return json.loads(text)
    except (json.JSONDecodeError, ValueError):
        return text


def read_flat_config(path):
    """Parse a dotted-key file; returns (values, {key: line_no})."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path!r} is not UTF-8 text: {exc}")
    out = {}
    lines = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("empty key", line_no)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", line_no)
        out[key] = parse_value(value)
        lines[key] = line_no
    return out, lines


def config_hash(values):
    """Short stable hash of a normalized key/value mapping."""
    canon = json.dumps(
        {str(k): values[k] for k in sorted(values)}, sort_keys=True, default=str
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


__all__ = [
    "ConfigError",
    "parse_value",
    "read_flat_config",
    "config_hash",
]
