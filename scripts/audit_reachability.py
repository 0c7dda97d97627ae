#!/usr/bin/env python3
"""Link-time reachability audit: library code must have a production caller.

Every strong text symbol (`nm` type T) of the libvbr_*.a archives must
survive linking into at least one production binary (an example, a bench
driver, vbr_analyze or perfbench_workload), or be listed with a reason in
the allow-list. The binaries are built at -O0 with -ffunction-sections and
-Wl,--gc-sections, so a function no production path calls is dropped from
every binary and shows up here; `scripts/check.sh --reach` makes that build.

    python3 scripts/audit_reachability.py --allow scripts/reachability_allow.txt build-reach
    python3 scripts/audit_reachability.py --allow ALLOW \\
        --library-listing LIB.nm --binary-listing BIN.nm

The first form runs `nm --defined-only -C` over every libvbr_*.a and every
ELF executable under the build directories (CMakeFiles/ excluded). The
second reads listings already in that format, which is how the fixture test
drives the comparison without a build.

Allow-list lines read `<demangled symbol> | <reason>`; `#` starts a comment
line. The audit fails (exit 1) on an unreachable symbol that is not listed,
and on a stale entry: one that is now reachable or no longer in the
libraries. Exit 0 when clean, 2 on bad usage or an unreadable allow-list.
"""
import argparse
import pathlib
import subprocess
import sys

SEPARATOR = " | "
TEXT_TYPES = set("TtWw")


def parse_listing(text):
    """(name, type) pairs from `nm --defined-only -C` output.

    Archive member headers ("foo.o:") and blank lines carry no symbol.
    """
    for line in text.splitlines():
        parts = line.split(maxsplit=2)
        if len(parts) == 3 and len(parts[1]) == 1:
            yield parts[2], parts[1]


def library_symbols(texts):
    return {name for text in texts for name, kind in parse_listing(text) if kind == "T"}


def binary_symbols(texts):
    return {name for text in texts for name, kind in parse_listing(text) if kind in TEXT_TYPES}


def load_allow(path):
    allowed = {}
    for number, raw in enumerate(pathlib.Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        symbol, sep, reason = line.partition(SEPARATOR)
        if not sep or not symbol.strip() or not reason.strip():
            raise ValueError(f"{path}:{number}: expected '<symbol>{SEPARATOR}<reason>'")
        if symbol.strip() in allowed:
            raise ValueError(f"{path}:{number}: duplicate entry for {symbol.strip()}")
        allowed[symbol.strip()] = reason.strip()
    return allowed


def audit(library, reachable, allowed):
    """(unlisted unreachable symbols, stale allow-list entries with why)."""
    unreachable = library - reachable
    unlisted = sorted(unreachable - allowed.keys())
    stale = []
    for symbol in sorted(allowed):
        if symbol not in library:
            stale.append((symbol, "not a strong text symbol of any library"))
        elif symbol in reachable:
            stale.append((symbol, "reached by a production binary"))
    return unlisted, stale


def nm(path):
    proc = subprocess.run(["nm", "--defined-only", "-C", str(path)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"nm failed on {path}: {proc.stderr.strip()}")
    return proc.stdout


def is_elf_executable(path):
    if not path.is_file() or path.suffix in (".a", ".o", ".so"):
        return False
    if not path.stat().st_mode & 0o111:
        return False
    with path.open("rb") as f:
        return f.read(4) == b"\x7fELF"


def scan_builds(dirs):
    libraries, binaries = [], []
    for root in dirs:
        for path in sorted(pathlib.Path(root).rglob("*")):
            if "CMakeFiles" in path.parts:
                continue
            if path.name.startswith("libvbr_") and path.suffix == ".a":
                libraries.append(path)
            elif is_elf_executable(path):
                binaries.append(path)
    return libraries, binaries


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--allow", required=True, help="allow-list file")
    parser.add_argument("--library-listing", action="append", default=[],
                        help="nm listing of the libraries (instead of a build)")
    parser.add_argument("--binary-listing", action="append", default=[],
                        help="nm listing of the production binaries")
    parser.add_argument("builds", nargs="*", help="build directories to scan")
    args = parser.parse_args()

    listings = bool(args.library_listing or args.binary_listing)
    if listings == bool(args.builds) or (
            listings and not (args.library_listing and args.binary_listing)):
        parser.error("give build directories, or both --library-listing and --binary-listing")

    try:
        allowed = load_allow(args.allow)
    except (OSError, ValueError) as e:
        print(f"reachability audit: {e}", file=sys.stderr)
        return 2

    if listings:
        lib_texts = [pathlib.Path(p).read_text() for p in args.library_listing]
        bin_texts = [pathlib.Path(p).read_text() for p in args.binary_listing]
        source = f"{len(lib_texts)} library and {len(bin_texts)} binary listings"
    else:
        libraries, binaries = scan_builds(args.builds)
        if not libraries or not binaries:
            print(f"reachability audit: found {len(libraries)} libraries and "
                  f"{len(binaries)} binaries under {' '.join(args.builds)}", file=sys.stderr)
            return 2
        lib_texts = [nm(p) for p in libraries]
        bin_texts = [nm(p) for p in binaries]
        source = f"{len(libraries)} libraries, {len(binaries)} binaries"

    library = library_symbols(lib_texts)
    reachable = binary_symbols(bin_texts)
    unlisted, stale = audit(library, reachable, allowed)

    print(f"reachability audit: {source}; {len(library)} strong text symbols, "
          f"{len(library & reachable)} reached, {len(allowed)} allow-listed")
    for symbol in unlisted:
        print(f"UNREACHABLE (no production caller, not allow-listed): {symbol}")
    for symbol, why in stale:
        print(f"STALE allow-list entry ({why}): {symbol}")
    if unlisted or stale:
        print(f"reachability audit FAILED: {len(unlisted)} unreachable, {len(stale)} stale")
        return 1
    print("reachability audit OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
