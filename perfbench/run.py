#!/usr/bin/env python3
"""Build and run the layered oclick benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an oclick source tree. It builds
perfbench/main.exe with dune, then runs it with the same arguments and
exits with its status; the last line printed is the result JSON. The
host fingerprint (CPU model, OCaml flambda, source revision) reaches the
program through PERFBENCH_* environment variables.
"""

import hashlib
import os
import subprocess
import sys


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def flambda():
    try:
        out = subprocess.run(["ocamlopt", "-config"], capture_output=True,
                             text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    for line in out.splitlines():
        if line.startswith("flambda:"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def main():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail(need + " not found: run from the root of an oclick source tree")
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["PERFBENCH_CPU"] = cpu_model()
    env["PERFBENCH_FLAMBDA"] = flambda()
    env["PERFBENCH_COMMIT"] = revision()
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    sys.exit(subprocess.run([exe] + sys.argv[1:], env=env).returncode)


if __name__ == "__main__":
    main()
