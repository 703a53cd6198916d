#!/usr/bin/env python3
"""Fail when a wfr:: function is linked into no shipped binary.

Builds the tree at -O0 with one section per function and links the
shipped executables with --gc-sections: `wfr`, every bench/ and examples/
binary, and perfbench/ as its own project. At -O0 nothing is inlined and
-fkeep-inline-functions emits every inline function too, so an executable
keeps exactly the wfr:: functions it can reach. A function that a
libwfr_*.a archive defines but no executable keeps is one that only tests
call.

    python3 scripts/check_test_only_api.py BUILD_DIR

Both trees are built under BUILD_DIR; perfbench/ is read, never written.
Prints every such function that is not on KEEP and exits 1 if there is
one. Also exits 1 when a KEEP entry is linked after all, so the list
cannot go stale. Blind spots (docs/TESTING.md): templates, virtual
functions a live vtable holds, and constructors and destructors.
"""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
    " -fkeep-inline-functions",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]

# Functions no shipped binary calls that stay, each with its reason.
KEEP = {
    "wfr::analytical::gptune_metadata_bytes":
        "pins a published paper number (tests/analytical)",
    "wfr::core::Ceiling::diagonal":
        "public constructor of the model, with horizontal",
    "wfr::core::Ceiling::wall":
        "public constructor of the model, with horizontal",
    "wfr::autotune::SuperluSurface::default_value":
        "reference value for the tuner and GPTune tests",
    "wfr::autotune::SuperluSurface::optimum":
        "reference value for the tuner and GPTune tests",
    "wfr::autotune::SuperluSurface::optimum_value":
        "reference value for the tuner and GPTune tests",
    "wfr::serve::App::roofline_from_bytes":
        "entry point of the serve fuzz target",
    "wfr::serve::App::sweep_from_bytes":
        "entry point of the serve fuzz target",
    "wfr::util::set_log_level":
        "test seam for the level filter that WFR_LOG_LEVEL sets",
    "wfr::util::Json::is_bool":
        "the json fuzz target labels ok:bool with it",
}

# A text symbol of a function declared in namespace wfr (mangled name).
SYMBOL = re.compile(r"^[0-9a-f]+ [TW] (_ZN[VKRO]*3wfr\S*)$")


def run(*cmd):
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def build(source, tree, *targets):
    # Ninja, for its per-directory "<dir>/all" targets.
    run("cmake", "-S", str(source), "-B", str(tree), "-G", "Ninja", *FLAGS)
    run("cmake", "--build", str(tree), "-j", str(os.cpu_count() or 1),
        "--target", *targets)


def functions(path):
    """The mangled wfr:: text symbols `path` defines."""
    out = subprocess.run(["nm", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    return {m.group(1) for m in map(SYMBOL.match, out.splitlines()) if m}


def demangle(symbols):
    out = subprocess.run(["c++filt"], input="\n".join(symbols), check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(symbols, out.splitlines()))


def qualified_name(signature):
    """`wfr::ns::f(int) const` -> `wfr::ns::f`."""
    start = signature.find("operator()")
    start = start + len("operator()") if start >= 0 else 0
    paren = signature.find("(", start)
    return signature if paren < 0 else signature[:paren]


def is_structor(name):
    """Constructors and destructors: mostly compiler-generated, which the
    symbol table cannot tell from written ones, so they are not reported."""
    scope, _, last = name.rpartition("::")
    return last.lstrip("~") == scope.rpartition("::")[2].split("<")[0]


def executables(directory):
    return [p for p in directory.iterdir()
            if p.is_file() and os.access(p, os.X_OK)]


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    out = pathlib.Path(sys.argv[1]).resolve()
    tree, bench = out / "tree", out / "perfbench"
    build(ROOT, tree, "wfr", "bench-build/all", "examples/all")
    build(ROOT / "perfbench", bench, "perfbench")

    shipped = [tree / "src/cli/wfr", bench / "perfbench",
               *executables(tree / "bench"), *executables(tree / "examples")]
    linked = set().union(*map(functions, shipped))
    unlinked = {}
    for archive in sorted(tree.glob("src/*/libwfr_*.a")):
        for symbol in functions(archive) - linked:
            unlinked.setdefault(symbol, archive.name)
    signatures = demangle(sorted(unlinked))
    dead = {signatures[s]: a for s, a in unlinked.items()
            if not is_structor(qualified_name(signatures[s]))}

    status = 0
    names = {qualified_name(s) for s in dead}
    for signature, archive in sorted(dead.items()):
        if qualified_name(signature) not in KEEP:
            print(f"{archive}: {signature}")
            status = 1
    for name in sorted(set(KEEP) - names):
        print(f"keep-list entry {name} is linked into a shipped binary "
              f"(or gone): drop it from KEEP")
        status = 1
    print(f"{len(shipped)} binaries, {len(dead)} unlinked wfr:: functions, "
          f"{len(KEEP)} kept", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
