#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of kmm (see perfbench/README.md).

    python3 perfbench/run.py --workload map-bidir --seed 1 --seconds 12 --trace 0

Run from the repository root.  The script builds bin/kmm.exe and the
in-process tracer from source with dune, generates every input from
--seed, times kmm processes from outside (--trace 0) or runs the traced
per-layer pass (--trace 1), checks every answer, and prints one JSON
object as the last line of stdout.  It exits non-zero if a correctness
gate fails.

A/B mode (two builds of kmm, run alternately on the same inputs):

    python3 perfbench/run.py --workload map-mtree --seed 1 --seconds 12 \
        --kmm A/kmm.exe --kmm-b B/kmm.exe --pairs 10
"""

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

# --- sizes -----------------------------------------------------------------

GENOME_BP = 2_000_000
MAP_K = 3
JOBS = 2  # domains of kmm serve and of map-bidir; the sizing host has 2 cores
# map-mtree maps on one domain: on two, m-tree's allocation makes every
# minor GC a two-domain rendezvous, and when the VM deschedules one vCPU
# the other waits.  Ten seeds at -j 2 spread by 40% as the host's steal
# time changed; the two-domain cost is kept in the traced run
# (mapper.domain_efficiency).
MAP_JOBS = {"map-bidir": JOBS, "map-mtree": 1}
MAP_READS = {"map-bidir": 40_000, "map-mtree": 3_000}
GATE_READS = 100  # shared subset both engines must answer byte-identically
# Set-up is timed on 1-read processes, each with another of the first
# SETUP_READS reads, so that no one read's search cost decides setup_s.
# Each repetition runs up to SETUP_BATCH of them, for at most
# SETUP_BUDGET_S seconds.
SETUP_READS = 32
SETUP_BATCH = 8
SETUP_BUDGET_S = 1.0
PROBES = 1200  # index-build probe queries
REFERENCE_QPS = 400  # well below saturation even when the host is slow
WINDOW = 1000  # requests per latency window: p99 has 10 samples beyond it
CONNS = 2  # pipelined connections of the serve load generator
GRACE_S = 10.0  # replies still missing this long after the last send count as failed
MIN_REPS = 3
HOLDOUT_SEED = 1_000_003  # reserved for checking claims; never tune on it

WORKLOADS = ["map-bidir", "map-mtree", "index-build"]
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rate_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("index_bytes_per_base", "B/base"),
]
PHASES = ["fasta_read", "sa_build", "index_build", "save", "load", "prepare", "map", "tsv"]
PER_LAYER = (
    [
        ("dna.fasta_read_s", "s"),
        ("suffix.sa_build_s", "s"),
        ("fmindex.build_s", "s"),
        ("fmindex.save_s", "s"),
        ("fmindex.load_s", "s"),
        ("core.prepare_s.bidir", "s"),
        ("core.prepare_s.m-tree", "s"),
        ("core.query_us.bidir.p50", "us"),
        ("core.query_us.bidir.p99", "us"),
        ("core.query_us.m-tree.p50", "us"),
        ("core.query_us.m-tree.p99", "us"),
        ("core.minor_words_per_query.bidir", "words"),
        ("core.minor_words_per_query.m-tree", "words"),
        ("engine.nodes_per_query", "count"),
        ("engine.rank_calls_per_query", "count"),
        ("engine.derived_leaf_ratio", "ratio"),
        ("fm.rank_ops_per_query", "count"),
        ("fm.locate_steps_per_query", "count"),
        ("verify.calls_per_query", "count"),
        ("verify.early_exit_ratio", "ratio"),
        ("bidir.verify_hit_ratio", "ratio"),
        ("mapper.search_s", "s"),
        ("mapper.merge_s", "s"),
        ("mapper.tsv_s", "s"),
        ("mapper.domain_efficiency", "ratio"),
    ]
    + [("gc.minor_words." + p, "words") for p in PHASES]
    + [("gc.major_collections." + p, "count") for p in PHASES]
    + [
        ("pool.queue_wait_us.p50", "us"),
        ("serve.request_us.p50", "us"),
        ("serve.request_us.p99", "us"),
        ("serve.batch_size.mean", "count"),
        ("serve.shed", "count"),
        ("serve.timeouts", "count"),
        ("server.wire_us", "us"),
        ("server.engine_share", "ratio"),
        ("trace.overhead_s", "s"),
        ("trace.serve_overhead_ms", "ms"),
    ]
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure of the benchmark itself (build, missing tree, dead daemon)."""


# --- build and provenance --------------------------------------------------


def build():
    """Build kmm and the tracer from the checkout's sources."""
    if not (os.path.isfile("dune-project") and os.path.isdir("bin") and os.path.isdir("lib")):
        raise BenchError("run from the root of a kmm checkout (no dune-project, bin/ or lib/ here)")
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")
    t0 = time.perf_counter()
    p = subprocess.run(
        ["dune", "build", "--root", ".", "bin/kmm.exe", "perfbench/tracer/tracer.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if p.returncode != 0:
        raise BenchError("dune build failed:\n" + p.stdout[-4000:])
    log(f"build: {time.perf_counter() - t0:.1f} s")
    return os.path.abspath("_build/default/bin/kmm.exe"), os.path.abspath(
        "_build/default/perfbench/tracer/tracer.exe")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_hash():
    """Hash of the sources kmm is built from, for checkouts without .git."""
    h = hashlib.sha256()
    for top in ["dune-project", "bin", "lib"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def cmd_output(cmd):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance(args, kmm_paths):
    cpu, cache = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                if key.strip() == "model name" and cpu == "unknown":
                    cpu = val.strip()
                if key.strip() == "cache size" and cache == "unknown":
                    cache = val.strip()
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "is_holdout": args.seed == HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cache_size": cache,
        "python": platform.python_version(),
        "ocaml": cmd_output(["ocamlfind", "ocamlopt", "-version"]),
        "git_rev": cmd_output(["git", "rev-parse", "HEAD"]),
        "source_hash": source_hash(),
        "kmm_sha256": {side: sha256_file(p)[:16] for side, p in kmm_paths.items()},
        "genome_bp": GENOME_BP,
    }


# --- inputs ----------------------------------------------------------------

def read_fasta(path):
    """The sequences of a FASTA file, in order."""
    seqs = []
    with open(path) as f:
        for line in f:
            if line.startswith(">"):
                seqs.append([])
            else:
                seqs[-1].append(line.strip())
    return ["".join(s).lower() for s in seqs]


def make_patterns(salt, seed, genome, count, lo, hi, kmax):
    """Short patterns sampled uniformly from the genome (so from its repeats
    in proportion), each with a budget k in 0..kmax and up to k substitutions."""
    rng = random.Random(f"{salt}-{seed}")
    out = []
    for _ in range(count):
        m = rng.randint(lo, hi)
        k = rng.randint(0, kmax)
        o = rng.randrange(len(genome) - m + 1)
        p = list(genome[o:o + m])
        for i in rng.sample(range(m), rng.randint(0, k)):
            p[i] = rng.choice([b for b in "acgt" if b != p[i]])
        out.append(("".join(p), k))
    return out


def write_fasta(path, name, seqs):
    with open(path, "w") as f:
        for i, s in enumerate(seqs):
            f.write(f">{name}{i}\n{s}\n")


def write_queries(path, queries):
    with open(path, "w") as f:
        for p, k in queries:
            f.write(f"{p} {k}\n")


# --- processes -------------------------------------------------------------

_live = set()  # pids of children not yet reaped


def spawn(cmd, stdout_path=None, stderr_path=None):
    """Start a process with stdout/stderr redirected to files (or /dev/null)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path or os.devnull, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path or os.devnull, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    pid = os.posix_spawnp(cmd[0], cmd, os.environ, file_actions=actions)
    _live.add(pid)
    return pid


def reap(pid, timeout):
    """Wait for a child; return (exit code, peak RSS in MB).  Kills it
    after [timeout] seconds."""
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
    finally:
        os.close(fd)
    if not ready:
        os.kill(pid, signal.SIGKILL)
    _, status, ru = os.wait4(pid, 0)
    _live.discard(pid)
    if not ready:
        raise BenchError(f"process {pid} timed out after {timeout} s")
    return os.waitstatus_to_exitcode(status), ru.ru_maxrss / 1024.0


def kill_all():
    for pid in list(_live):
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass
        _live.discard(pid)


def run_timed(cmd, stdout_path=None, timeout=170):
    """Run one process to completion; return (wall seconds, peak RSS in MB,
    stderr text).  A non-zero exit is a BenchError."""
    err_path = (stdout_path or os.path.join(_errdir[0], "proc")) + ".err"
    t0 = time.perf_counter()
    pid = spawn(cmd, stdout_path, err_path)
    code, rss = reap(pid, timeout)
    wall = time.perf_counter() - t0
    with open(err_path, errors="replace") as f:
        err = f.read()
    if code != 0:
        raise BenchError(f"exit {code}: {' '.join(cmd)}\n{err[-2000:]}")
    return wall, rss, err


_errdir = ["."]  # where stderr of processes without an output file goes


# --- serve client ----------------------------------------------------------


def query_frame(i, pattern, k, engine):
    return (f'{{"cmd":"query","id":{i},"pattern":"{pattern}","k":{k},'
            f'"engine":"{engine}"}}\n').encode()


def render_hits(reply):
    return " ".join(f"{p}:{d}" for p, d in reply.get("hits", []))


class Daemon:
    """One `kmm serve` subprocess on a Unix socket under the work dir."""

    def __init__(self, kmm, index, work):
        self.sock_path = os.path.join(os.path.relpath(work), "kmm.sock")
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        cmd = [kmm, "serve", "-i", index, "--mmap", "-j", str(JOBS),
               "-s", os.path.abspath(self.sock_path), "-q"]
        t0 = time.perf_counter()
        self.pid = spawn(cmd, None, os.path.join(work, "serve.err"))
        try:
            while True:
                try:
                    self.command("ping")
                    break
                except OSError:
                    if time.perf_counter() - t0 > 120:
                        raise BenchError("kmm serve did not start")
                    time.sleep(0.002)
        except (OSError, BenchError):
            self.stop()
            raise

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(self.sock_path)
        except OSError:
            s.close()
            raise
        return s

    def command(self, cmd):
        s = self.connect()
        try:
            s.sendall((json.dumps({"cmd": cmd}) + "\n").encode())
            return json.loads(_recv_line(s))
        finally:
            s.close()

    def stop(self):
        """Drain and stop the daemon over the wire; SIGKILL if it hangs."""
        if self.pid not in _live:
            return
        try:
            self.command("shutdown")
        except (OSError, BenchError):
            os.kill(self.pid, signal.SIGTERM)
        code, _ = reap(self.pid, 30)
        if code != 0:
            raise BenchError(f"kmm serve exited {code}")


def _recv_line(s):
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = s.recv(1 << 16)
        if not chunk:
            raise BenchError("connection closed before a reply")
        buf += chunk
    return buf.decode()


def drive(daemon, frames, due):
    """Send frames[i] at offset due[i] (seconds) round-robin over CONNS
    pipelined connections, without waiting for replies (an open loop).
    A single thread multiplexes sending and receiving with select(2),
    whose timeout has microsecond resolution (epoll's is a millisecond,
    which would make every send up to 1 ms late).  Returns the start
    time and the (receive time, line) of every reply."""
    socks = [daemon.connect() for _ in range(CONNS)]
    for s in socks:
        s.setblocking(False)
    pend = [bytearray() for _ in socks]
    inbuf = [bytearray() for _ in socks]
    n = len(frames)
    got = []
    start = time.perf_counter() + 0.002
    hard_stop = start + (due[-1] if n else 0.0) + GRACE_S
    i = 0
    try:
        while len(got) < n:
            now = time.perf_counter()
            if now > hard_stop:
                break  # the missing replies count as failed
            while i < n and start + due[i] <= now:
                pend[i % CONNS] += frames[i]
                i += 1
            for j, s in enumerate(socks):
                if pend[j]:
                    try:
                        del pend[j][:s.send(pend[j])]
                    except BlockingIOError:
                        pass
            writers = [s for j, s in enumerate(socks) if pend[j]]
            timeout = 0.05 if i >= n else max(0.0, start + due[i] - time.perf_counter())
            readable, _, _ = select.select(socks, writers, [], min(timeout, 0.05))
            for s in readable:
                data = s.recv(1 << 18)
                if not data:
                    raise BenchError("kmm serve closed a connection")
                t = time.perf_counter()
                buf = inbuf[socks.index(s)]
                buf += data
                while True:
                    nl = buf.find(b"\n")
                    if nl < 0:
                        break
                    got.append((t, bytes(buf[:nl])))
                    del buf[:nl + 1]
    finally:
        for s in socks:
            s.close()
    return start, got


def poisson_due(rng, rate, n):
    t, out = 0.0, []
    for _ in range(n):
        t += rng.expovariate(rate)
        out.append(t)
    return out


class Stream:
    """Requests drawn from a pattern pool with known reference answers."""

    def __init__(self, pool, refs, engine, seed):
        self.pool, self.refs, self.engine = pool, refs, engine
        self.rng = random.Random(f"stream-{seed}")
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def run(self, daemon, due):
        n = len(due)
        picks = [self.rng.randrange(len(self.pool)) for _ in range(n)]
        frames = [query_frame(i, *self.pool[p], self.engine) for i, p in enumerate(picks)]
        start, got = drive(daemon, frames, due)
        lat = [None] * n
        for t, line in got:
            r = json.loads(line)
            i = r.get("id")
            if not isinstance(i, int) or not 0 <= i < n or lat[i] is not None:
                continue
            if r.get("status") != "ok" or r.get("truncated"):
                continue  # shed, timed out or error frame: counted below
            if render_hits(r) != self.refs[picks[i]]:
                self.wrong += 1
                continue
            lat[i] = t - (start + due[i])
        ok = sorted(x for x in lat if x is not None)
        self.attempted += n
        self.failed += n - len(ok)
        return {"p50_ms": statistics.median(ok) * 1e3 if ok else 0.0}


# --- prometheus scrapes ----------------------------------------------------


def parse_prometheus(text):
    """Counters and histograms (cumulative buckets) of a kmm exposition."""
    counters, hists = {}, {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, val = line.rpartition(" ")
        if "_bucket{le=" in name:
            base, _, le = name.partition("_bucket{le=")
            le = le.strip('"}')
            hists.setdefault(base, {})[float("inf") if le == "+Inf" else float(le)] = int(val)
        else:
            counters[name] = float(val)
    return counters, hists


def hist_delta(before, after, name):
    """The buckets recorded between two scrapes, as sorted (high, count)."""
    a = after[1].get(name, {})
    b = before[1].get(name, {})
    les = sorted(set(a) | set(b))
    out, prev = [], 0
    for le in les:
        cum_a = max((v for k, v in a.items() if k <= le), default=0)
        cum_b = max((v for k, v in b.items() if k <= le), default=0)
        c = cum_a - cum_b
        out.append((le, c - prev))
        prev = c
    return out


def hist_quantile(buckets, q):
    """Quantile of delta buckets, interpolated linearly inside a bucket."""
    total = sum(c for _, c in buckets)
    if total == 0:
        return 0.0
    rank, cum, low = q * total, 0, 0.0
    for high, c in buckets:
        if high == float("inf"):
            return low
        if c and cum + c >= rank:
            return low + (high - low) * (rank - cum) / c
        cum += c
        low = high
    return low


def counter_delta(before, after, name):
    return after[0].get(name, 0.0) - before[0].get(name, 0.0)


def scrape(daemon):
    return parse_prometheus(daemon.command("metrics")["metrics"])


# --- workloads ---------------------------------------------------------------


class Ctx:
    def __init__(self, args, kmm, tracer, work):
        self.args, self.kmm, self.tracer, self.work = args, kmm, tracer, work
        self.attempted = 0
        self.failed = 0
        self.gates = []  # (name, passed, detail)
        self.info = {}

    def path(self, name):
        return os.path.join(self.work, name)

    def gate(self, name, passed, detail=""):
        self.gates.append((name, passed, detail))
        log(f"gate {name}: {'ok' if passed else 'FAILED'} {detail}")

    def deadline_reached(self, t0, reps):
        return reps >= MIN_REPS and time.perf_counter() - t0 >= self.args.seconds


def prepare_inputs(ctx):
    """Everything generated from the seed, plus the index for map-*,
    built once, outside every timed region.  The genome and reads come
    from the library functions behind kmm generate and kmm simulate, run
    by the tracer built from this checkout, so A/B inputs do not depend on
    the binary being measured."""
    seed, w = ctx.args.seed, ctx.args.workload
    t0 = time.perf_counter()
    gen = [ctx.tracer, "gen", "--seed", str(seed), "--size", str(GENOME_BP),
           "--genome", ctx.path("genome.fa")]
    if w.startswith("map-"):
        gen += ["--reads", ctx.path("reads.fa"), "--count", str(MAP_READS[w])]
    run_timed(gen)
    if w.startswith("map-"):
        reads = read_fasta(ctx.path("reads.fa"))
        for i in range(SETUP_READS):
            write_fasta(ctx.path(f"read1-{i}.fa"), "read", reads[i:i + 1])
        write_fasta(ctx.path("gate.fa"), "read", reads[:GATE_READS])
        # The traced run's one-domain engine sample.
        write_queries(ctx.path("queries.txt"), [(r, MAP_K) for r in reads[:1000]])
        run_timed([ctx.kmm, "index", "-g", ctx.path("genome.fa"), "-o", ctx.path("genome.fmi")])
    else:
        genome = read_fasta(ctx.path("genome.fa"))[0]
        ctx.pool = make_patterns("probe", seed, genome, PROBES, 20, 32, 2)
        write_queries(ctx.path("queries.txt"), ctx.pool)
    log(f"inputs: {time.perf_counter() - t0:.1f} s")


def tracer_ref(ctx, source, engine):
    """Reference answers (render_hits lines) of the in-process library."""
    out = ctx.path(f"ref-{engine}.txt")
    run_timed([ctx.tracer, "ref", *source, "--engine", engine,
               "--queries", ctx.path("queries.txt")], stdout_path=out)
    with open(out) as f:
        return f.read().splitlines()


def tsv_rows(path, below=None):
    with open(path) as f:
        rows = f.read().splitlines()
    if below is not None:
        rows = [r for r in rows if int(r.split("\t", 1)[0]) < below]
    return rows


def skipped_reads(stderr):
    return sum(1 for line in stderr.splitlines() if line.startswith("skipped read"))


def map_cmd(ctx, kmm, engine, reads):
    return [kmm, "map", "-i", ctx.path("genome.fmi"), "--mmap", "--engine", engine,
            "-j", str(MAP_JOBS[ctx.args.workload]), "-k", str(MAP_K), "-r", reads]


def measure_map(ctx, kmm, tag=""):
    """Untraced: alternate a batch of 1-read processes (set-up) with one
    full `kmm map` process."""
    engine = ctx.args.workload[len("map-"):]
    n = MAP_READS[ctx.args.workload]
    setups, walls, rss = [], [], []
    first_tsv = None
    t0 = time.perf_counter()
    while not ctx.deadline_reached(t0, len(walls)):
        spent = 0.0
        for _ in range(SETUP_BATCH):
            one = ctx.path(f"read1-{len(setups) % SETUP_READS}.fa")
            s, _, _ = run_timed(map_cmd(ctx, kmm, engine, one), stdout_path=ctx.path("one.tsv"))
            setups.append(s)
            spent += s
            if spent >= SETUP_BUDGET_S:
                break
        out = ctx.path(f"map{tag}.tsv")
        w, r, err = run_timed(map_cmd(ctx, kmm, engine, ctx.path("reads.fa")), stdout_path=out)
        walls.append(w)
        rss.append(r)
        ctx.attempted += n
        ctx.failed += skipped_reads(err)
        digest = sha256_file(out)
        if first_tsv is None:
            first_tsv = digest
        elif digest != first_tsv:
            ctx.failed += n
            ctx.gate("map output identical across repetitions", False, tag)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        # Reads per second of the search part: the median whole process
        # less the median set-up, both robust to a single slow repetition.
        "rate_per_s": n / max(1e-9, statistics.median(walls) - statistics.median(setups)),
        "peak_rss_mb": statistics.median(rss),
        "index_bytes_per_base": os.path.getsize(ctx.path("genome.fmi")) / GENOME_BP,
        "_reps": len(walls),
        "_setup_samples": len(setups),
    }


def gate_map(ctx, kmm, tag=""):
    """Both engines answer the shared read subset byte-identically."""
    engine = ctx.args.workload[len("map-"):]
    other = "m-tree" if engine == "bidir" else "bidir"
    run_timed(map_cmd(ctx, kmm, other, ctx.path("gate.fa")), stdout_path=ctx.path("gate.tsv"))
    mine = tsv_rows(ctx.path(f"map{tag}.tsv"), below=GATE_READS)
    theirs = tsv_rows(ctx.path("gate.tsv"))
    bad = len({r.split("\t", 1)[0] for r in set(mine) ^ set(theirs)})
    ctx.attempted += GATE_READS
    ctx.failed += bad
    ctx.gate(f"{engine} == {other} on {GATE_READS} shared reads", bad == 0 and mine == theirs,
             f"{bad} reads differ")


def measure_index(ctx, kmm, refs):
    """Untraced: `kmm index`, then a `kmm search` process answering one probe
    from the new file, loaded by copy (set-up: the first answer the file
    gives)."""
    setups, walls, rss, sizes = [], [], [], []
    idx = ctx.path("built.fmi")
    t0 = time.perf_counter()
    while not ctx.deadline_reached(t0, len(walls)):
        w, r, _ = run_timed([kmm, "index", "-g", ctx.path("genome.fa"), "-o", idx])
        walls.append(w)
        rss.append(r)
        sizes.append(os.path.getsize(idx) / GENOME_BP)
        probe = len(setups) % len(ctx.pool)
        pattern, k = ctx.pool[probe]
        s, _, _ = run_timed([kmm, "search", "-i", idx, "-k", str(k), pattern],
                            stdout_path=ctx.path("probe.txt"))
        setups.append(s)
        with open(ctx.path("probe.txt")) as f:
            hits = " ".join(":".join(line.split("\t")) for line in f.read().splitlines())
        ctx.attempted += 1
        if hits != refs[probe]:
            ctx.failed += 1
            ctx.gate(f"kmm search on the built index answers probe {probe}", False)
    gate_index(ctx, refs)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "rate_per_s": GENOME_BP / statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "index_bytes_per_base": statistics.median(sizes),
        "_reps": len(walls),
    }


def gate_index(ctx, refs):
    """The index kmm built, loaded back by copy, answers every probe as a
    fresh in-memory index of the same genome does."""
    got = tracer_ref(ctx, ["--index", ctx.path("built.fmi")], "m-tree")
    wrong = sum(1 for a, b in zip(got, refs) if a != b) + abs(len(got) - len(refs))
    ctx.attempted += len(refs)
    ctx.failed += wrong
    ctx.gate("built index, loaded by copy, == fresh in-memory index on the probes",
             wrong == 0, f"{wrong} wrong of {len(refs)}")


def references(ctx):
    if ctx.args.workload == "index-build":
        return tracer_ref(ctx, ["--genome", ctx.path("genome.fa")], "m-tree")
    return None


def measure(ctx, kmm, refs, tag=""):
    if ctx.args.workload.startswith("map-"):
        m = measure_map(ctx, kmm, tag)
        gate_map(ctx, kmm, tag)
        return m
    return measure_index(ctx, kmm, refs)


# --- traced run ------------------------------------------------------------


def traced(ctx, refs):
    """Per-layer metrics: the in-process tracer over the same inputs, plus
    (index-build) a daemon's own metrics scraped around each window."""
    w = ctx.args.workload
    cmd = [ctx.tracer, "layers", "--workload", w, "--genome", ctx.path("genome.fa"),
           "--index", ctx.path("genome.fmi"), "--queries", ctx.path("queries.txt"),
           "--work", ctx.work]
    if w.startswith("map-"):
        cmd += ["--reads", ctx.path("reads.fa"), "--k", str(MAP_K),
                "--jobs", str(MAP_JOBS[w]),
                "--eff-reads", str(MAP_READS[w] // 4)]
        engine = w[len("map-"):]
        run_timed(map_cmd(ctx, ctx.kmm, engine, ctx.path("reads.fa")),
                  stdout_path=ctx.path("map.tsv"))
        gate_map(ctx, ctx.kmm)
    else:
        run_timed([ctx.kmm, "index", "-g", ctx.path("genome.fa"), "-o", ctx.path("built.fmi")])
        gate_index(ctx, refs)
        shutil.copyfile(ctx.path("built.fmi"), ctx.path("genome.fmi"))
        rng = random.Random(f"replay-{ctx.args.seed}")
        with open(ctx.path("frames.txt"), "wb") as f:
            for i in range(WINDOW):
                f.write(query_frame(i, *ctx.pool[rng.randrange(len(ctx.pool))], "bidir"))
        cmd += ["--frames", ctx.path("frames.txt")]
    out = ctx.path("tracer.out")
    run_timed(cmd, stdout_path=out)
    with open(out) as f:
        got = json.loads(f.read().splitlines()[-1])
    if w.startswith("map-"):
        same = sha256_file(ctx.path("traced.tsv")) == sha256_file(ctx.path("map.tsv"))
        ctx.attempted += 1
        ctx.failed += 0 if same else 1
        ctx.gate("traced in-process map == kmm map TSV", same)
    m = {name: 0.0 for name, _ in PER_LAYER}
    m.update({k: v for k, v in got.items() if k in m})
    if w == "index-build":
        serve_layers(ctx, refs, m, got["aux.inproc_engine_us"])
    ctx.info["chrome_trace"] = ctx.path("trace.json")
    return m


def serve_layers(ctx, refs, m, inproc_engine_us):
    """Server-side attribution at the reference rate, from kmm's own metrics
    scraped before and after each window."""
    stream = Stream(ctx.pool, refs, "bidir", ctx.args.seed)
    daemon = Daemon(ctx.kmm, ctx.path("genome.fmi"), ctx.work)
    rng = random.Random(f"schedule-{ctx.args.seed}")
    try:
        plain = [stream.run(daemon, poisson_due(rng, REFERENCE_QPS, WINDOW)) for _ in range(2)]
        first = scrape(daemon)
        scraped = []
        for _ in range(3):
            before = scrape(daemon)
            res = stream.run(daemon, poisson_due(rng, REFERENCE_QPS, WINDOW))
            scraped.append((res, before, scrape(daemon)))
        last = scrape(daemon)
    finally:
        daemon.stop()
    req = [hist_delta(b, a, "kmm_serve_request_ns") for _, b, a in scraped]
    req_p50_us = statistics.median(hist_quantile(x, 0.5) for x in req) / 1e3
    m["serve.request_us.p50"] = req_p50_us
    m["serve.request_us.p99"] = statistics.median(hist_quantile(x, 0.99) for x in req) / 1e3
    bs = [counter_delta(first, last, f"kmm_serve_batch_size_{s}") for s in ("sum", "count")]
    m["serve.batch_size.mean"] = bs[0] / max(1.0, bs[1])
    m["serve.shed"] = counter_delta(first, last, "kmm_serve_shed")
    m["serve.timeouts"] = counter_delta(first, last, "kmm_serve_timeouts")
    m["pool.queue_wait_us.p50"] = hist_quantile(
        hist_delta(first, last, "kmm_pool_queue_wait_ns"), 0.5) / 1e3
    client_p50_ms = statistics.median(r["p50_ms"] for r, _, _ in scraped)
    m["server.wire_us"] = client_p50_ms * 1e3 - req_p50_us
    req_sum = counter_delta(first, last, "kmm_serve_request_ns_sum")
    req_cnt = counter_delta(first, last, "kmm_serve_request_ns_count")
    req_mean_us = req_sum / max(1.0, req_cnt) / 1e3
    m["server.engine_share"] = inproc_engine_us / req_mean_us if req_mean_us else 0.0
    m["trace.serve_overhead_ms"] = client_p50_ms - statistics.median(r["p50_ms"] for r in plain)
    ctx.attempted += stream.attempted
    ctx.failed += stream.failed
    ctx.gate("serve replies == in-process Kmismatch.run (m-tree)", stream.wrong == 0,
             f"{stream.wrong} wrong of {stream.attempted}")


# --- reporting ---------------------------------------------------------------


# The name each generic metric has on each workload (map_wall_s, ...).
WORKLOAD_NAMES = {
    "map-bidir": {"wall_s": "map_wall_s", "rate_per_s": "map_reads_per_s"},
    "index-build": {"wall_s": "index_build_s", "rate_per_s": "index_bases_per_s"},
}
WORKLOAD_NAMES["map-mtree"] = WORKLOAD_NAMES["map-bidir"]


def print_metrics(workload, metrics, units):
    names = WORKLOAD_NAMES[workload]
    for name, unit in units:
        alias = names.get(name, name)
        print(f"{name:<40} {metrics[name]:>14.6g} {unit:<7} ({alias})" if alias != name
              else f"{name:<40} {metrics[name]:>14.6g} {unit}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def ab_mode(args, kmm_a, kmm_b, tracer):
    """Alternate two kmm builds on identical inputs; per metric, each
    side's median and quartiles and how many pairs each side won."""
    better = {"rate_per_s": "higher"}
    sides = {"A": [], "B": []}
    for pair in range(args.pairs):
        seed = args.seed + pair
        pargs = argparse.Namespace(**{**vars(args), "seed": seed})
        work = workdir(pargs)
        ctx = Ctx(pargs, kmm_a, tracer, work)
        prepare_inputs(ctx)
        refs = references(ctx)
        order = [("A", kmm_a), ("B", kmm_b)] if pair % 2 == 0 else [("B", kmm_b), ("A", kmm_a)]
        for side, kmm in order:
            ctx.kmm = kmm
            sides[side].append(measure(ctx, kmm, refs, tag=side))
        if any(not ok for _, ok, _ in ctx.gates) or ctx.failed:
            raise BenchError(f"correctness gate failed in pair {pair}")
        shutil.rmtree(work, ignore_errors=True)
    summary = {}
    print(f"{'metric':<24} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} {'B wins':>8}")
    for name, unit in END_TO_END:
        a = [r[name] for r in sides["A"]]
        b = [r[name] for r in sides["B"]]
        hi = better.get(name) == "higher"
        wins = sum(1 for x, y in zip(a, b) if (y > x if hi else y < x))
        qa, qb = quartiles(a), quartiles(b)
        summary[name] = {"unit": unit, "A": qa, "B": qb, "B_wins": wins, "pairs": len(a)}
        print(f"{name:<24} {qa[1]:>12.6g} [{qa[0]:.4g}, {qa[2]:.4g}] "
              f"{qb[1]:>12.6g} [{qb[0]:.4g}, {qb[2]:.4g}] {wins:>4}/{len(a)}")
    print(json.dumps({"ab": summary}))


def workdir(args):
    work = os.path.join(".perfbench", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    _errdir[0] = os.path.abspath(work)
    return os.path.abspath(work)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--kmm", help="measure this kmm binary instead of the one built here")
    ap.add_argument("--kmm-b", help="A/B mode: the second kmm binary")
    ap.add_argument("--pairs", type=int, default=10, help="A/B mode: pairs to run")
    args = ap.parse_args()
    try:
        built_kmm, tracer = build()
        kmm = os.path.abspath(args.kmm) if args.kmm else built_kmm
        kmm_paths = {"A": kmm}
        if args.kmm_b:
            kmm_paths["B"] = os.path.abspath(args.kmm_b)
        prov = provenance(args, kmm_paths)
        print("provenance " + json.dumps(prov, sort_keys=True))
        if args.kmm_b:
            ab_mode(args, kmm, kmm_paths["B"], tracer)
            return 0
        work = workdir(args)
        with open(os.path.join(work, "provenance.json"), "w") as f:
            json.dump(prov, f, indent=1, sort_keys=True)
        ctx = Ctx(args, kmm, tracer, work)
        prepare_inputs(ctx)
        refs = references(ctx)
        if args.trace:
            metrics = traced(ctx, refs)
            units = PER_LAYER
        else:
            metrics = measure(ctx, kmm, refs)
            units = END_TO_END
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        kill_all()
    correct = all(ok for _, ok, _ in ctx.gates) and ctx.failed == 0
    if not args.trace:
        print_metrics(args.workload, metrics, units)
    else:
        for name, unit in units:
            print(f"{name:<40} {metrics[name]:>14.6g} {unit}")
    print(f"fail_ratio {ctx.failed / max(1, ctx.attempted):.6g} "
          f"({ctx.failed} failed of {ctx.attempted} attempted)")
    for k, v in sorted(metrics.items()):
        if k.startswith("_") and not isinstance(v, list):
            print(f"{k[1:]} {v}")
    for k, v in ctx.info.items():
        print(f"{k} {v}")
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
