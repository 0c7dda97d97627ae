#!/usr/bin/env python3
"""Fixture harness for scripts/audit_reachability.py.

Runs the audit's comparison on the committed `nm` listings in this
directory (no build needed) against one allow-list per case, and requires
each case's exit code and output lines:

    clean      every unreachable symbol listed          -> exit 0
    unlisted   an unreachable symbol missing            -> exit 1, named
    stale      listed symbols now reachable or gone     -> exit 1, named
    no_reason  an allow-list line without a reason      -> exit 2

Usage: run_fixtures.py <path-to-audit_reachability.py> [fixtures-dir]
"""
import pathlib
import subprocess
import sys

CASES = [
    ("allow_clean.txt", 0, ["reachability audit OK"]),
    ("allow_unlisted.txt", 1, [
        "UNREACHABLE (no production caller, not allow-listed): vbr::dead_code(double)",
        "reachability audit FAILED: 1 unreachable, 0 stale",
    ]),
    ("allow_stale.txt", 1, [
        "STALE allow-list entry (reached by a production binary): vbr::used(int)",
        "STALE allow-list entry (not a strong text symbol of any library): "
        "vbr::removed_long_ago()",
        "reachability audit FAILED: 0 unreachable, 2 stale",
    ]),
    ("allow_no_reason.txt", 2, ["expected '<symbol> | <reason>'"]),
]


def main() -> int:
    if len(sys.argv) < 2:
        print("usage: run_fixtures.py <audit_reachability.py> [fixtures-dir]", file=sys.stderr)
        return 2
    script = sys.argv[1]
    fixtures = (pathlib.Path(sys.argv[2]) if len(sys.argv) > 2
                else pathlib.Path(__file__).resolve().parent)

    failures = 0
    for allow, want_code, want_lines in CASES:
        proc = subprocess.run(
            [sys.executable, script, "--allow", str(fixtures / allow),
             "--library-listing", str(fixtures / "library.nm"),
             "--binary-listing", str(fixtures / "binary.nm")],
            capture_output=True, text=True)
        output = proc.stdout + proc.stderr
        problems = []
        if proc.returncode != want_code:
            problems.append(f"exit {proc.returncode}, want {want_code}")
        problems += [f"missing line: {line}" for line in want_lines if line not in output]
        if problems:
            failures += 1
            print(f"FAIL {allow}: " + "; ".join(problems))
            print("  output:\n    " + "\n    ".join(output.splitlines()))
        else:
            print(f"ok   {allow} (exit {proc.returncode})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
