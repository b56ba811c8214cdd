#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds, in release mode, the repository's
`serve_http` and `pack_city` binaries and this benchmark package (each
in its own subdirectory of $CARGO_TARGET_DIR, default `.bench_build`),
then runs the benchmark with the given arguments and exits with its
exit code. The benchmark's last line of standard output is the JSON
result; records and span files go to `<target dir>/perfbench-out`.

In a git checkout Cargo alone decides what to rebuild. Outside one, the
serve and artifact crates' build scripts watch `.git/HEAD`, a file that
does not exist there, so Cargo would rebuild them (about 20 s) on every
run. There the builds are skipped while a stamp is unchanged: a hash of
the sources' contents, the toolchain versions and every RUSTFLAGS,
RUSTC* and CARGO* variable of the environment.
"""

import hashlib
import os
import subprocess
import sys

# What the builds read, relative to the repository root.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]


def source_hash(root: str) -> str:
    """SHA-256 over the path and contents of every source file."""
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(root, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d != "target")
                files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            digest.update(os.path.relpath(f, root).encode() + b"\0")
            with open(f, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def revision(root: str, sources: str) -> str:
    """The git commit under test, or the source hash outside git."""
    if os.path.exists(os.path.join(root, ".git")):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if head.returncode == 0:
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=root, capture_output=True, text=True).stdout.strip()
            return head.stdout.strip() + ("-dirty" if dirty else "")
    return "source-sha256:" + sources


def build_stamp(sources: str) -> str:
    """What the skipped builds depend on besides the sources."""
    parts = [sources]
    for tool in ("rustc", "cargo"):
        parts.append(subprocess.run([tool, "-V"], capture_output=True, text=True).stdout)
    parts += sorted(f"{k}={v}" for k, v in os.environ.items()
                    if k.startswith(("RUSTFLAGS", "RUSTC", "CARGO")))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    workspace_target = os.path.join(target, "workspace")
    bench_target = os.path.join(target, "perfbench")
    bench = os.path.join(bench_target, "release", "perfbench")
    serve_http = os.path.join(workspace_target, "release", "serve_http")
    pack_city = os.path.join(workspace_target, "release", "pack_city")
    stamp_file = os.path.join(target, "perfbench.stamp")

    sources = source_hash(root)
    in_git = os.path.exists(os.path.join(root, ".git"))
    stamp = None if in_git else build_stamp(sources)
    fresh = False
    if stamp is not None and all(os.path.isfile(p) for p in (bench, serve_http, pack_city)):
        try:
            with open(stamp_file) as f:
                fresh = f.read() == stamp
        except OSError:
            pass
    if not fresh:
        builds = [
            ["cargo", "build", "--release", "--offline", "--quiet",
             "-p", "rntrajrec-serve", "--bin", "serve_http",
             "-p", "rntrajrec-artifact", "--bin", "pack_city",
             "--target-dir", workspace_target],
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(here, "Cargo.toml"),
             "--target-dir", bench_target],
        ]
        for cmd in builds:
            # Build output goes to stderr so stdout ends with the result line.
            done = subprocess.run(cmd, cwd=root, stdout=sys.stderr)
            if done.returncode != 0:
                print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
                return done.returncode or 1
        if stamp is not None:
            with open(stamp_file, "w") as f:
                f.write(stamp)

    out = os.path.join(target, "perfbench-out")
    os.makedirs(out, exist_ok=True)
    cmd = [bench, *sys.argv[1:], "--serve-http", serve_http, "--pack-city", pack_city,
           "--out", out, "--revision", revision(root, sources)]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
