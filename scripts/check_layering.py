#!/usr/bin/env python3
"""Layering check for the sans-io split.

The protocol core must stay deployable without the simulator: src/co may
include only itself, src/common, src/causality and the two header-only
trace vocabulary files its observer speaks (an allow-list, so nothing else
reaches the core unchecked); the socket layer src/transport may include
only itself and src/common (an allow-list, so no protocol node grows back
under the host); and the realtime driver files may not include src/sim.
Run from anywhere; exits non-zero and prints every violation as
file:line: include.

Rules (DESIGN.md "Layering"):
  src/co        -> src/co, src/common, src/causality, and exactly
                   src/obs/trace/record.h + src/obs/trace/events.h (which
                   are held to the same allow-list)
  src/obs       -> no src/sim, no src/driver (tracer/metrics/exporters must
                   stay linkable from the realtime path)
  src/transport -> src/transport, src/common
  src/host      -> no src/sim, no src/net (the sharded host runtime is the
                   deployable path: real sockets and the realtime driver
                   only, never the simulated network)
  src/driver/realtime_driver.*, src/driver/timer_wheel.* -> no src/sim
"""
from __future__ import annotations

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(src/[^"]+)"')

# What src/co may include: these directories, plus these exact files.
CORE_ALLOWED_DIRS = ("src/co/", "src/common/", "src/causality/")
CORE_ALLOWED_FILES = ("src/obs/trace/record.h", "src/obs/trace/events.h")
CORE_WHY = (
    "the sans-io core may include only src/co, src/common, src/causality "
    "and the trace record/event headers"
)

# (scope, allowed prefixes, rationale)
ALLOW_RULES = [
    (
        "src/transport",
        ("src/transport/", "src/common/"),
        "the socket layer may include only src/transport and src/common",
    ),
]

# (scope, forbidden prefixes, rationale)
RULES = [
    (
        "src/host",
        ("src/sim/", "src/net/"),
        "the sharded host runtime ships without the simulator: transport, "
        "realtime driver and obs only",
    ),
    (
        "src/obs",
        ("src/sim/", "src/driver/"),
        "observability (tracer, metrics, exporters) must stay usable from "
        "the realtime path",
    ),
]

# Individual realtime files inside src/driver that must stay sim-free
# (the rest of src/driver IS the sim driver and legitimately uses src/sim).
REALTIME_DRIVER_FILES = [
    "src/driver/realtime_driver.h",
    "src/driver/realtime_driver.cpp",
    "src/driver/timer_wheel.h",
]


def includes_of(path: pathlib.Path):
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        m = INCLUDE_RE.match(line)
        if m:
            yield lineno, m.group(1)


def includes_under(scope: str):
    for path in sorted((REPO / scope).rglob("*")):
        if path.suffix in (".h", ".cpp"):
            for lineno, inc in includes_of(path):
                yield path.relative_to(REPO), lineno, inc


def core_allowed(inc: str) -> bool:
    return inc.startswith(CORE_ALLOWED_DIRS) or inc in CORE_ALLOWED_FILES


def main() -> int:
    violations = []

    core_files = [
        p for p in sorted((REPO / "src/co").rglob("*"))
        if p.suffix in (".h", ".cpp")
    ] + [REPO / rel for rel in CORE_ALLOWED_FILES]
    for path in core_files:
        rel = path.relative_to(REPO)
        if not path.exists():
            violations.append(f"{rel}: expected core-visible header is missing")
            continue
        for lineno, inc in includes_of(path):
            if not core_allowed(inc):
                violations.append(f"{rel}:{lineno}: {inc}  ({CORE_WHY})")

    for scope, allowed, why in ALLOW_RULES:
        for rel, lineno, inc in includes_under(scope):
            if not inc.startswith(allowed):
                violations.append(f"{rel}:{lineno}: {inc}  ({why})")

    for scope, forbidden, why in RULES:
        for rel, lineno, inc in includes_under(scope):
            if inc.startswith(forbidden):
                violations.append(f"{rel}:{lineno}: {inc}  ({why})")

    for rel in REALTIME_DRIVER_FILES:
        path = REPO / rel
        if not path.exists():
            violations.append(f"{rel}: expected realtime driver file is missing")
            continue
        for lineno, inc in includes_of(path):
            if inc.startswith("src/sim/"):
                violations.append(
                    f"{rel}:{lineno}: {inc}  "
                    "(the realtime driver must not depend on the simulator)"
                )

    if violations:
        print("layering violations:")
        for v in violations:
            print("  " + v)
        return 1
    print(
        "layering: OK (src/co is sans-io; src/transport is the socket layer; "
        "realtime path is sim-free)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
