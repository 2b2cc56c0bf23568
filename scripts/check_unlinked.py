#!/usr/bin/env python3
"""Report library functions that no executable links.

Finds libcat_core.a and every ELF executable under the given build
directories, then prints each `cat::` function that the library defines
(`nm -C --defined-only`) and no executable defines. Meaningful only on a
build whose linker drops unreferenced functions and whose compiler keeps
each function in its own section and out of its callers:

  FLAGS=(-DCMAKE_BUILD_TYPE=Debug -DCAT_WERROR=OFF
         "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections -fdata-sections"
         -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
  cmake -S . -B build-unlinked "${FLAGS[@]}"
  cmake -S perfbench -B build-unlinked-perfbench "${FLAGS[@]}"
  cmake --build build-unlinked -j && cmake --build build-unlinked-perfbench -j
  python3 scripts/check_unlinked.py build-unlinked build-unlinked-perfbench

Exit code 0 when every library function is linked by some executable,
1 when any is not, 2 on a usage error (no library or no executable found).
"""

import argparse
import os
import subprocess
import sys

# Text-section symbol kinds: global/local functions and weak (inline or
# template) definitions.
FUNCTION_KINDS = {"T", "t", "W", "w"}
ET_EXEC, ET_DYN = 2, 3


def is_elf_executable(path: str) -> bool:
    if not os.access(path, os.X_OK) or not os.path.isfile(path):
        return False
    with open(path, "rb") as f:
        header = f.read(18)
    if len(header) < 18 or header[:4] != b"\x7fELF":
        return False
    order = "little" if header[5] == 1 else "big"
    return int.from_bytes(header[16:18], order) in (ET_EXEC, ET_DYN)


def scan(build_dirs):
    libraries, executables = [], []
    for root_dir in build_dirs:
        for dirpath, dirnames, filenames in os.walk(root_dir):
            # CMake's compiler-probe binaries are not project executables.
            dirnames[:] = sorted(d for d in dirnames if d != "CMakeFiles")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                if name == "libcat_core.a":
                    libraries.append(path)
                elif is_elf_executable(path):
                    executables.append(path)
    return libraries, executables


def defined_functions(path: str):
    out = subprocess.run(["nm", "-C", "--defined-only", path],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in FUNCTION_KINDS:
            names.add(parts[2])
    return names


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("build_dirs", nargs="+", metavar="BUILD_DIR")
    args = ap.parse_args()

    libraries, executables = scan(args.build_dirs)
    if not libraries or not executables:
        print(f"check_unlinked: found {len(libraries)} libcat_core.a and "
              f"{len(executables)} executables under {args.build_dirs}",
              file=sys.stderr)
        return 2

    library = set()
    for lib in libraries:
        library |= {n for n in defined_functions(lib)
                    if n.startswith("cat::")}
    linked = set()
    for exe in executables:
        linked |= defined_functions(exe)

    unlinked = sorted(library - linked)
    for name in unlinked:
        print(name)
    print(f"check_unlinked: {len(unlinked)} of {len(library)} cat:: "
          f"functions in {len(libraries)} libcat_core.a unlinked by "
          f"{len(executables)} executables", file=sys.stderr)
    return 1 if unlinked else 0


if __name__ == "__main__":
    sys.exit(main())
