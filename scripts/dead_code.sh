#!/usr/bin/env bash
# Finds the src/ code that no shipped binary links. Builds the shipped
# binaries — `midas`, `experiment`, the bench/fig* harnesses,
# `ablation_design`, `macro_scale` and perfbench's `midas_bench` — in a
# throwaway Release build with -ffunction-sections and -Wl,--gc-sections,
# so every function no binary reaches is dropped at link time, then
# compares each src/ object's global functions (nm type T) against the
# symbols the binaries keep. It prints:
#   - the src/ objects none of the binaries links any function of;
#   - per linked object, the global functions every link drops.
# -fno-inline keeps a function that is called only where it was inlined
# from reading as dropped. Functions with internal linkage (anonymous
# namespaces, `static`) and inline or template functions (nm type W) are
# not judged. Exits 1 when any src/ object is unlinked (CI fails on a new
# dead module); dropped functions are reported only, since test hooks and
# reference implementations that tests compare against are among them.
#
# Usage: scripts/dead_code.sh [BUILD_DIR]
#   BUILD_DIR is kept when given; by default a temporary directory is used
#   and removed afterwards.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ $# -ge 1 ]; then
  BUILD="$1"
  mkdir -p "$BUILD"
else
  BUILD="$(mktemp -d)"
  trap 'rm -rf "$BUILD"' EXIT
fi

FIGS=()
for src in "$ROOT"/bench/fig*.cc; do
  FIGS+=("$(basename "$src" .cc)")
done
BENCHES=("${FIGS[@]}" ablation_design macro_scale)

cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release \
  -DMIDAS_BUILD_EXAMPLES=OFF \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fno-inline" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > "$BUILD/dead_code_cmake.log" 2>&1
cmake --build "$BUILD" -j "$(nproc)" \
  --target midas_cli experiment midas_bench "${BENCHES[@]}" \
  > "$BUILD/dead_code_build.log" 2>&1

BINARIES=("$BUILD/tools/midas" "$BUILD/tools/experiment"
          "$BUILD/tests/midas_bench")
for name in "${BENCHES[@]}"; do BINARIES+=("$BUILD/bench/$name"); done

python3 - "$BUILD" "${BINARIES[@]}" <<'EOF'
import os
import subprocess
import sys

build, binaries = sys.argv[1], sys.argv[2:]


def defined(path):
    """(name, nm type) of every symbol `path` defines."""
    out = subprocess.run(["nm", "--defined-only", "-P", path], check=True,
                         capture_output=True, text=True).stdout
    return [tuple(line.split()[:2]) for line in out.splitlines()
            if len(line.split()) >= 2]


def source_of(obj):
    """src/midas/util/CMakeFiles/midas_util.dir/__/obs/trace.cc.o
    -> src/midas/obs/trace.cc"""
    rel = os.path.relpath(obj, build)
    lib_dir, rest = rel.split("/CMakeFiles/", 1)
    member = rest.split(".dir/", 1)[1][:-len(".o")].replace("__", "..")
    return os.path.normpath(os.path.join(lib_dir, member))


kept = set()
for binary in binaries:
    kept.update(name for name, _ in defined(binary))

objects = {}
for dirpath, _, files in os.walk(os.path.join(build, "src")):
    for f in files:
        if f.endswith(".o"):
            path = os.path.join(dirpath, f)
            objects[source_of(path)] = sorted(
                name for name, kind in defined(path) if kind == "T")

unjudged = sorted(src for src, funcs in objects.items() if not funcs)
unlinked = sorted(src for src, funcs in objects.items()
                  if funcs and not any(f in kept for f in funcs))
dropped = {src: [f for f in funcs if f not in kept]
           for src, funcs in sorted(objects.items())
           if funcs and src not in unlinked}
dropped = {src: funcs for src, funcs in dropped.items() if funcs}


def demangle(names):
    """Demangled names, each once (constructors and destructors have two
    mangled variants)."""
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return list(dict.fromkeys(out.splitlines()))


print(f"binaries: {len(binaries)}; src/ objects: {len(objects)}"
      f" ({len(unjudged)} define no global function)")
print(f"objects no binary links: {len(unlinked)}")
for src in unlinked:
    print(f"  {src} ({len(demangle(objects[src]))} functions)")
dropped = {src: demangle(funcs) for src, funcs in dropped.items()}
total = sum(len(funcs) for funcs in dropped.values())
print(f"functions every link drops, in linked objects: {total}")
for src, funcs in dropped.items():
    print(f"  {src}")
    for name in funcs:
        print(f"    {name}")
sys.exit(1 if unlinked else 0)
EOF
