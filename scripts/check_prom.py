"""Validate a Prometheus text exposition (as served by ``GET /metrics``).

Checks:

- every sample line parses as ``name{labels} value`` with a finite float,
- every sample is preceded by a ``# TYPE`` line for its family,
- each histogram series (family plus its labels other than ``le``) exposes
  ``_sum``, ``_count``, and a ``+Inf`` bucket,
- each series' buckets are cumulative (monotone non-decreasing in ``le``
  order) and its ``+Inf`` bucket equals its ``_count``.

Importable (``check_exposition(text) -> list[str]`` of problems) and
runnable: ``python scripts/check_prom.py [FILE]`` reads the exposition from
FILE or stdin and exits 1 listing every problem found. CI pipes the smoke
server's ``/metrics`` through it.
"""

from __future__ import annotations

import math
import re
import sys

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?:\{(?P<labels>(?:[^"}]|"(?:[^"\\]|\\.)*")*)\})?\s+(?P<value>\S+)$'
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _family(name: str) -> str:
    """The metric family a sample belongs to (strips histogram suffixes)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def _series(family: str, labels: str | None) -> tuple[tuple[str, str], str | None]:
    """A sample's series ``(family, labels other than le)`` and its ``le``."""
    pairs = dict(_LABEL_RE.findall(labels or ""))
    le = pairs.pop("le", None)
    return (family, ",".join(f'{k}="{v}"' for k, v in sorted(pairs.items()))), le


def check_exposition(text: str) -> list[str]:
    """Return every problem found in a Prometheus text exposition."""
    problems: list[str] = []
    types: dict[str, str] = {}
    # (family, labels without le) -> list of (le, count) for _bucket
    # samples; and the series' _sum / _count samples
    buckets: dict[tuple[str, str], list[tuple[float, float]]] = {}
    sums: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], float] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 4:
                problems.append(f"line {lineno}: malformed TYPE line: {line!r}")
                continue
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # HELP and comments
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparseable sample line: {line!r}")
            continue
        name = match.group("name")
        try:
            value = float(match.group("value"))
        except ValueError:
            problems.append(f"line {lineno}: non-numeric value in: {line!r}")
            continue
        if math.isnan(value):
            problems.append(f"line {lineno}: NaN value for {name}")
        family = _family(name)
        if family not in types:
            problems.append(f"line {lineno}: sample {name!r} has no preceding # TYPE line")
        key, le = _series(family, match.group("labels"))
        if name.endswith("_bucket"):
            if le is None:
                problems.append(f"line {lineno}: bucket sample without an le label: {line!r}")
            else:
                bound = math.inf if le == "+Inf" else float(le)
                buckets.setdefault(key, []).append((bound, value))
        elif name.endswith("_sum"):
            sums[key] = value
        elif name.endswith("_count"):
            counts[key] = value

    for family, kind in types.items():
        if kind != "histogram":
            continue
        keys = sorted({key for key in (*buckets, *sums, *counts) if key[0] == family})
        if not keys:
            problems.append(f"histogram {family}: no _bucket samples")
        for key in keys:
            series = f"{family}{{{key[1]}}}" if key[1] else family
            problems.extend(
                f"histogram {series}: {problem}"
                for problem in _histogram_problems(
                    buckets.get(key, []), sums.get(key), counts.get(key)
                )
            )
    return problems


def _histogram_problems(
    series: list[tuple[float, float]], total: float | None, count: float | None
) -> list[str]:
    """Problems of one histogram series: its (le, count) buckets, _sum, _count."""
    if not series:
        return ["no _bucket samples"]
    problems = []
    if total is None:
        problems.append("missing _sum")
    if count is None:
        problems.append("missing _count")
    les = [le for le, _ in series]
    if les != sorted(les):
        problems.append("buckets not in increasing le order")
    if les[-1] != math.inf:
        problems.append("missing the +Inf bucket")
    values = [v for _, v in series]
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append("bucket counts are not cumulative")
    if les[-1] == math.inf and count is not None and values[-1] != count:
        problems.append(f"+Inf bucket ({values[-1]:g}) != _count ({count:g})")
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] not in ("-",):
        with open(argv[0], encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    problems = check_exposition(text)
    for problem in problems:
        print(f"check_prom: {problem}", file=sys.stderr)
    if problems:
        return 1
    families = len({_family(m.group("name")) for m in map(_SAMPLE_RE.match, (
        line for line in text.splitlines() if line and not line.startswith("#")
    )) if m})
    print(f"check_prom: OK ({families} metric families)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
