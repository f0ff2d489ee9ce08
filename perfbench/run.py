#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for the astree analyzer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest

The script builds `astree`, `astreed` and the benchmark's own OCaml
helper (`perfbench/pb.exe`) with dune, generates the workload's inputs
from the seed, drives the shipped binaries from outside, checks every
output, prints a table and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` runs the traced
per-layer pass instead.  See perfbench/README.md for the workloads, the
metrics and what each layer metric should move.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("oneshot", "oneshot_j2", "incremental", "daemon")
BIN = os.path.join("_build", "default")
ASTREE = os.path.join(BIN, "bin", "astree.exe")
ASTREED = os.path.join(BIN, "bin", "astreed.exe")
PB = os.path.join(BIN, "perfbench", "pb.exe")
WORK = ".perfbench-work"
# set-up runs (before, after) the measured phase; the median of all the
# samples is reported: set-up is short, so one sample would carry the
# noise of a single moment.  The one-shot set-up is only input
# generation, which runs up to half slower on a CPU that was idle just
# before, so most of its samples come after the measured phase.
SETUP_REPEATS = {"oneshot": (1, 10), "oneshot_j2": (1, 10), "incremental": (3, 2), "daemon": (3, 2)}
CLK_TCK = os.sysconf("SC_CLK_TCK")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    pass


# ---- statistics helpers -------------------------------------------------


def percentile(values, q):
    """Linear-interpolation percentile (q in [0, 100]); the median for 50."""
    if not values:
        raise ValueError("percentile of no values")
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_supported(n, q):
    """A percentile is reported only with at least 10 samples beyond it."""
    return n * (100 - q) / 100.0 >= 10


# ---- building and processes ---------------------------------------------


def build():
    for need in ("dune-project", os.path.join("bin", "astree.ml"), os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            raise Failure("not a source checkout: %s is missing" % need)
    if shutil.which("dune") is None:
        raise Failure("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", ASTREE.replace(BIN + os.sep, ""),
         ASTREED.replace(BIN + os.sep, ""), PB.replace(BIN + os.sep, "")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise Failure("build failed:\n" + r.stderr.decode(errors="replace")[-2000:])


def child_env(tmp):
    return dict(os.environ, TMPDIR=tmp)


def page_in(env, wdir):
    """Read the binaries and run each once, so the set-up timer starts
    with their pages resident."""
    for exe in (ASTREE, ASTREED, PB):
        with open(exe, "rb") as f:
            while f.read(1 << 20):
                pass
    for args in ([ASTREE, "--help=plain"], [ASTREED, "--help=plain"], [PB]):
        subprocess.run(args, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    probe = os.path.join(wdir, "pagein.c")
    with open(probe, "w") as f:
        f.write("int x;\nint main(void) { x = 1; return 0; }\n")
    subprocess.run([os.path.abspath(ASTREE), "--format", "json", "pagein.c"], cwd=wdir,
                   env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def run_child(args, cwd, env):
    """Run one process to completion; return wall seconds, exit code,
    CPU seconds and peak RSS (MB) of it and its reaped descendants, and
    its standard output."""
    t0 = time.perf_counter()
    p = subprocess.Popen(args, cwd=cwd, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, out


def proc_children(pid):
    try:
        with open("/proc/%d/task/%d/children" % (pid, pid)) as f:
            return [int(x) for x in f.read().split()]
    except OSError:
        return []


def tree_cpu(pid):
    """CPU seconds of a live process tree, including reaped children."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    own = sum(int(x) for x in fields[11:15]) / CLK_TCK
    return own + sum(tree_cpu(c) for c in proc_children(pid))


def tree_hwm_mb(pid):
    """Largest peak resident set in a live process tree, MB."""
    best = 0.0
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    best = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return max([best] + [tree_hwm_mb(c) for c in proc_children(pid)])


class Daemon:
    """An `astreed` child; ready when its stderr says it is listening,
    which it prints only after binding the socket and forking its
    pool."""

    def __init__(self, wdir, sock, env, extra=()):
        self.proc = subprocess.Popen(
            [os.path.abspath(ASTREED), "--socket", sock, "--max-inflight", "2",
             "--verbose"] + list(extra),
            cwd=wdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        for line in self.proc.stderr:
            if b"listening on" in line:
                break
        else:
            self.stop()
            raise Failure("astreed exited before listening")
        # keep draining the request log so the daemon never blocks on it
        self.drain = threading.Thread(target=self.proc.stderr.read, daemon=True)
        self.drain.start()

    def stop(self):
        """SIGTERM (the daemon drains and reaps its workers), then wait;
        SIGKILL after 60 s."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if hasattr(self, "drain"):
            self.drain.join(timeout=10)


# ---- plans and checks ---------------------------------------------------


def read_plan(wdir):
    base, reqs = [], []
    with open(os.path.join(wdir, "plan.tsv")) as f:
        for line in f:
            parts = line.rstrip("\n").split("\t")
            if parts[0] == "B":
                base.append((parts[1], parts[2]))
            else:
                reqs.append((int(parts[1]), parts[2], parts[3]))
    return base, reqs


def references(wdir, env, specs):
    """Reference fingerprint, exit code and oracle verdict per input,
    computed by `pb ref` in two parallel shards (2 cores)."""
    shards = [specs[0::2], specs[1::2]]
    procs = [subprocess.Popen([os.path.abspath(PB), "ref", "."] + s, cwd=wdir, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for s in shards if s]
    refs = {}
    for p in procs:
        out, err = p.communicate()
        if p.returncode != 0:
            raise Failure("pb ref failed: " + err.decode(errors="replace")[-1000:])
        for line in out.decode().splitlines():
            f, fp, code, errors, uncovered = line.split("\t")
            refs[f] = (fp, int(code), int(errors), int(uncovered))
    return refs


def report_fingerprint(text):
    try:
        return json.loads(text).get("fingerprint")
    except (ValueError, AttributeError):
        return None


def check(results, refs):
    """results: (file, status, code, report_text) per request.  A request
    fails when the reply is not ok, the exit code or fingerprint differs
    from the -j 1 cache-off reference, or the oracle found a concrete
    error no alarm covers."""
    failed = 0
    for f, status, code, report in results:
        fp, ref_code, _, uncovered = refs[f]
        why = None
        if status != "ok":
            why = "status " + status
        elif code != ref_code:
            why = "exit %d, expected %d" % (code, ref_code)
        elif report_fingerprint(report) != fp:
            why = "fingerprint differs from the -j 1 reference"
        elif uncovered:
            why = "%d concrete error(s) without an alarm" % uncovered
        if why:
            failed += 1
            log("FAILED %s: %s" % (f, why))
    return failed


# ---- the end-to-end run -------------------------------------------------


def generate(workload, seed, seconds, sdir, env):
    """Write the plan's inputs into sdir; return the median seconds of
    one round of generating and writing them, as `pb gen` reports."""
    os.makedirs(sdir)
    r = subprocess.run([os.path.abspath(PB), "gen", workload, str(seed), str(seconds), "."],
                       cwd=sdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise Failure("pb gen failed: " + r.stderr.decode(errors="replace"))
    return float(r.stdout)


def setup_once(workload, seed, seconds, sdir, env):
    """One complete set-up into a fresh directory: input preparation,
    plus store population (incremental) or daemon start and warm-up
    (daemon).  Returns its seconds and the live daemon, if any.  Input
    preparation is timed inside `pb gen`: on a shared VM the start-up of
    a 20 ms process varies by half from minute to minute."""
    prep = generate(workload, seed, seconds, sdir, env)
    t0 = time.perf_counter()
    base, _ = read_plan(sdir)
    d = None
    if workload == "incremental":
        for f, _ in base:
            _, code, _, _, _ = run_child([os.path.abspath(ASTREE), "--cache", "store",
                                          "--format", "json", f], sdir, env)
            if code not in (0, 1):
                raise Failure("store fill of %s exited %d" % (f, code))
    elif workload == "daemon":
        d = Daemon(sdir, "d.sock", env)
        try:
            warm = [subprocess.Popen([os.path.abspath(PB), "client", "d.sock", "warm%d.tsv" % c]
                                     + [f for f, _ in base[c::2]],
                                     cwd=sdir, env=env, stderr=subprocess.DEVNULL)
                    for c in range(2)]
            for p in warm:
                if p.wait() != 0:
                    raise Failure("daemon warm-up client failed")
        except BaseException:
            d.stop()
            raise
    return prep + time.perf_counter() - t0, d


def measure(workload, sdir, env, daemon):
    """The measured phase: the plan's requests, closed loop.  Returns
    per-request (file, status, code, report, latency) rows, the phase's
    wall time, the CPU seconds of all analyzer processes and the peak
    RSS of any of them."""
    _, reqs = read_plan(sdir)
    rows = []
    if workload != "daemon":
        cmd = [os.path.abspath(ASTREE), "--format", "json"]
        if workload == "oneshot_j2":
            cmd += ["-j", "2"]
        if workload == "incremental":
            cmd += ["--cache", "store"]
        cpu = rss = 0.0
        t0 = time.perf_counter()
        for _, f, _ in reqs:
            wall, code, c, m, out = run_child(cmd + [f], sdir, env)
            cpu += c
            rss = max(rss, m)
            rows.append((f, "ok", code, out.decode(errors="replace"), wall))
        return rows, time.perf_counter() - t0, cpu, rss
    pid = daemon.proc.pid
    cpu0 = tree_cpu(pid)
    t0 = time.perf_counter()
    clients = []
    for c in range(2):
        files = [f for cl, f, _ in reqs if cl == c]
        p = subprocess.Popen([os.path.abspath(PB), "client", "d.sock", "client%d.tsv" % c] + files,
                             cwd=sdir, env=env, stderr=subprocess.DEVNULL)
        clients.append(p)
    cpu = rss = 0.0
    for p in clients:
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        if p.returncode != 0:
            raise Failure("daemon client exited %d" % p.returncode)
        cpu += ru.ru_utime + ru.ru_stime
        rss = max(rss, ru.ru_maxrss / 1024.0)
    elapsed = time.perf_counter() - t0
    cpu += tree_cpu(pid) - cpu0
    rss = max(rss, tree_hwm_mb(pid))
    for c in range(2):
        with open(os.path.join(sdir, "client%d.tsv" % c)) as fh:
            for line in fh:
                f, status, code, lat, rpath = line.rstrip("\n").split("\t")
                report = ""
                if rpath != "-":
                    with open(os.path.join(sdir, rpath)) as r:
                        report = r.read()
                rows.append((f, status, int(code), report, float(lat)))
    return rows, elapsed, cpu, rss


def end_to_end(args, wdir, env):
    # set-up samples are taken before and after the measured phase, so
    # their median reflects the whole run, not one moment of a machine
    # whose speed drifts
    before, after = SETUP_REPEATS[args.workload]
    setups = []

    def timed_setup(sdir):
        seconds, daemon = setup_once(args.workload, args.seed, args.seconds, sdir, env)
        setups.append(seconds)
        return daemon

    def spare_setup(k):
        sdir = os.path.join(wdir, "spare%d" % k)
        daemon = timed_setup(sdir)
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(sdir)

    for k in range(before - 1):
        spare_setup(k)
    sdir = os.path.join(wdir, "run")
    daemon = timed_setup(sdir)
    try:
        rows, elapsed, cpu, rss = measure(args.workload, sdir, env, daemon)
    finally:
        if daemon is not None:
            daemon.stop()
    for k in range(after):
        spare_setup(before + k)
    # checks run after the measured phase, never inside it
    base, reqs = read_plan(sdir)
    bugs = dict((f, b) for f, b in base)
    bugs.update((f, b) for _, f, b in reqs)
    refs = references(sdir, env, ["%s:%s" % fb for fb in sorted(bugs.items())])
    failed = check([(f, s, c, r) for f, s, c, r, _ in rows], refs)
    hit = [f for f, (_, _, errors, _) in refs.items() if errors]
    n = len(rows)
    lats = [r[4] for r in rows]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s_p50": (percentile(lats, 50), "s"),
        "cpu_s": (cpu / n, "s"),
        "throughput_rps": (n / elapsed, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    print("workload %s, seed %d: %d requests, closed loop, %s" % (
        args.workload, args.seed, n,
        "2 clients" if args.workload == "daemon" else "1 client"))
    for name, (v, unit) in metrics.items():
        print("  %-16s %12.6f %s" % (name, v, unit))
    if tail_supported(n, 90):
        print("  %-16s %12.6f s" % ("wall_s_p90", percentile(lats, 90)))
    else:
        print("  %-16s %12s   (n=%d < 100: fewer than 10 samples beyond p90)"
              % ("wall_s_p90", "n/a", n))
    print("  %-16s %12.6f ratio (%d of %d failed)" % ("fail_ratio", failed / n, failed, n))
    print("  oracle: concrete runs reached errors in %d input(s), %d error(s) without an alarm"
          % (len(hit), sum(refs[f][3] for f in hit)))
    print("  setup samples: %s" % " ".join("%.4f" % s for s in setups))
    groups = {}
    for f, _, _, _, lat in rows:
        groups.setdefault("edited" if f.startswith("e") else f, []).append(lat)
    print("  latency by input: %s" % ", ".join(
        "%s %.4f s (n=%d)" % (g, statistics.median(v), len(v)) for g, v in sorted(groups.items())))
    return n, failed, metrics


# ---- the traced per-layer run -------------------------------------------


def traced(args, wdir, env):
    """Per-layer pass of `pb layers` over three fixed inputs of the
    workload (base programs first, then request files by name), against
    a live daemon with an access log; queue and service times come from
    that log."""
    sdir = os.path.join(wdir, "t")
    generate(args.workload, args.seed, args.seconds, sdir, env)
    base, reqs = read_plan(sdir)
    files = ([b for b, _ in base] + sorted({f for _, f, _ in reqs}))[:3]
    d = Daemon(sdir, "d.sock", env, extra=["--access-log", "access.jsonl"])
    try:
        p = subprocess.run([os.path.abspath(PB), "layers", ".", "d.sock", "spans.jsonl"] + files,
                           cwd=sdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    finally:
        d.stop()
    sys.stderr.write(p.stderr.decode(errors="replace"))
    if p.returncode != 0:
        raise Failure("pb layers failed")
    res = json.loads(p.stdout.decode().strip().splitlines()[-1])
    m = res["metrics"]
    queue = service = 0.0
    hits = shed = errors = 0
    with open(os.path.join(sdir, "access.jsonl")) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("rid") not in res["rids"]:
                continue
            queue += rec.get("queue_s", 0.0)
            service += rec.get("service_s", 0.0)
            hits += int(rec.get("cache_hits", 0))
            shed += rec.get("outcome") == "shed"
            errors += rec.get("outcome") not in ("ok", "shed")
    m["server.queue_s"] = queue
    m["server.service_s"] = service
    m["server.ipc_s"] = sum(res["rids"].values()) - queue - service
    m["server.resident_hits"] = hits
    m["server.shed"] = shed
    m["server.errors"] = errors
    # keep the spans: they are the evidence behind the table
    out = ".perfbench-out"
    os.makedirs(out, exist_ok=True)
    shutil.copy(os.path.join(sdir, "spans.jsonl"),
                os.path.join(out, "spans-%s-%d.jsonl" % (args.workload, args.seed)))
    with open("BENCHMARK.json") as f:
        units = {e["name"]: e["unit"] for e in json.load(f)["per_layer"]}
    print("workload %s, seed %d: traced pass over %d input(s): %s"
          % (args.workload, args.seed, len(files), " ".join(files)))
    metrics = {}
    for name in sorted(units):
        metrics[name] = (float(m[name]), units[name])
        print("  %-30s %14.6f %s" % (name, m[name], units[name]))
    return res["attempted"], res["failed"], metrics


def run(args):
    build()
    wdir = os.path.abspath(os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid())))
    os.makedirs(os.path.join(wdir, "tmp"))
    env = child_env(os.path.join(wdir, "tmp"))
    try:
        page_in(env, wdir)
        if args.trace:
            attempted, failed, metrics = traced(args, wdir, env)
        else:
            attempted, failed, metrics = end_to_end(args, wdir, env)
    finally:
        shutil.rmtree(wdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ---- self-tests -----------------------------------------------------------


def selftest():
    assert percentile([3.0], 50) == 3.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile(list(range(101)), 90) == 90.0
    assert abs(percentile([1.0, 2.0], 25) - 1.25) < 1e-12
    assert not tail_supported(99, 90) and tail_supported(100, 90)
    assert tail_supported(20, 50) and not tail_supported(19, 50)
    build()
    r = subprocess.run(["dune", "build", "--root", ".", "@perfbench/runtest"],
                       env=dict(os.environ, DUNE_CACHE="disabled"))
    if r.returncode != 0:
        raise Failure("perfbench OCaml self-test failed")
    # a short smoke pass through every workload, untraced and traced
    for w in WORKLOADS:
        for trace in (0, 1):
            res = run(argparse.Namespace(workload=w, seed=1, seconds=1, trace=trace))
            assert res["correct"] and res["failed"] == 0, (w, trace, res)
            log("smoke %s trace=%d: ok (%d attempted)" % (w, trace, res["attempted"]))
    print("perfbench selftest: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            selftest()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        result = run(args)
    except (Failure, OSError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
