"""Readers of the tables that spinbus.sweeps writes, for the tests."""

import csv
import io


def read_csv(path: str) -> tuple[list[str], list[list[str]], dict]:
    """Parse an emit_csv file back into (header, rows, provenance)."""
    provenance = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    data_lines = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            provenance[key.strip()] = value.strip()
        else:
            data_lines.append(line)
    reader = csv.reader(io.StringIO("\n".join(data_lines)))
    parsed = list(reader)
    return parsed[0], parsed[1:], provenance


def data_section(path: str) -> str:
    """Everything except the # provenance block; the determinism contract
    compares these bytes."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return "".join(line for line in fh if not line.startswith("#"))
