#!/usr/bin/env python3
"""perfbench — the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds bin/ace.exe, bin/aced.exe and
perfbench/harness.exe with dune, makes the workload's inputs from the
seed, measures for S seconds, checks every output, and prints a human
report followed by one JSON line (the last line of stdout):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
with no instrumentation; --trace 1 reports the per-layer metrics, from
a separate traced run (see perfbench/README.md for every definition).

Workloads:
  flat_suite   the seven paper chips (scale 1.0), one `ace -j 1` process each
  tiled_suite  the same chips, one `ace -j 2 --tile 2x2` process each
  aced_mixed   a real `aced` daemon, 2 closed-loop clients, seeded request mix
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

WORK = os.path.join("perfbench", "_work")
HARNESS = os.path.join("_build", "default", "perfbench", "harness.exe")
ACE = os.path.join("_build", "default", "bin", "ace.exe")
ACED = os.path.join("_build", "default", "bin", "aced.exe")
PINS = os.path.join("perfbench", "pins.json")
CHIPS = ["cherry", "dchip", "schip2", "testram", "psc", "scheme81", "riscb"]
WORKLOADS = ["flat_suite", "tiled_suite", "aced_mixed"]
SETUP_REPS = 3  # set-up is repeated and its median reported
CLIENTS = 2  # closed-loop connections on aced_mixed (nproc = 2)
TRACE_REPS = 3  # in-process rounds in a traced suite run
REPLAY_REPS = 4  # in-process replay rounds in a traced aced run
TRACE_PASSES = 3  # process-wall passes in a traced suite run
REPLAY_REQUESTS = 120  # served requests replayed in-process (traced aced)
SUBWINDOWS = 5  # aced_mixed figures are medians over this many stretches
ORACLE_BLOCKS = 3  # cold blocks re-checked against the baselines per run
MIX = ["warm", "cold", "lvs"]  # 65% / 20% / 15%, see aced_sequence

# Hand-written fixtures under data/, with their known LVS answers.  The
# generated half of the pool (seeded random blocks, flat references,
# with and without a deleted device card) comes from the harness.
LVS_FIXTURES = [
    ("mesh4x4_h", "mesh4x4.cif", "mesh4x4.sp", True, "clean"),
    ("mesh4x4_f", "mesh4x4.cif", "mesh4x4.sp", False, "clean"),
    ("chain4_f", "chain4.cif", "chain4.sp", False, "clean"),
    ("chain4_split_h", "chain4.cif", "chain4.split.sp", True, "mismatch"),
    ("nand2_extra_f", "nand2.cif", "nand2.extra.sp", False, "mismatch"),
    ("inverter_missing_h", "inverter.cif", "inverter.missing.sp", True, "mismatch"),
]

# Every source the build needs; a directory without them is not a
# checkout of this repository and the benchmark refuses to run there.
REQUIRED = ["dune-project", "bin/ace.ml", "bin/aced.ml", "lib/core/extractor.ml",
            "perfbench/harness.ml", "perfbench/dune", "data/mesh4x4.cif", PINS]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def quantile(xs, q):
    """Linear-interpolation quantile (q in [0, 1])."""
    s = sorted(xs)
    if not s:
        return float("nan")
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def md5(data):
    return hashlib.md5(data, usedforsecurity=False).hexdigest()


def read(path):
    with open(path, "rb") as f:
        return f.read()


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./perfbench/harness.exe",
           "./bin/ace.exe", "./bin/aced.exe"]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=840)
    if r.returncode != 0:
        die("build failed: " + " ".join(cmd))


def harness(*args):
    r = subprocess.run([HARNESS, *args], stdout=subprocess.PIPE,
                       stderr=sys.stderr, timeout=170)
    if r.returncode != 0:
        die("harness %s failed (exit %d)" % (args[0], r.returncode))
    return r.stdout


def spawn(args):
    """Run a process to completion: (wall seconds, peak RSS in MB, exit code)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        _, status, ru = os.wait4(p.pid, 0)
    except BaseException:
        p.kill()
        p.wait()
        raise
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_maxrss / 1024.0, p.returncode


class Run:
    """Operation accounting shared by every workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


# ---------------------------------------------------------------------
# flat_suite / tiled_suite


def suite_setup(pins):
    d = os.path.join(WORK, "suite")
    times = []
    for _ in range(SETUP_REPS):
        fresh_dir(d)
        t0 = time.perf_counter()
        harness("gen-suite", d)
        times.append(time.perf_counter() - t0)
    for c in CHIPS:
        if md5(read(os.path.join(d, c + ".cif"))) != pins["suite"][c]["cif_md5"]:
            die("generated %s.cif differs from its pin" % c)
    return d, statistics.median(times)


def ace_args(mode, chip, d):
    jobs = ["-j", "1"] if mode == "flat" else ["-j", "2", "--tile", "2x2"]
    return [ACE, "-n", chip, *jobs, os.path.join(d, chip + ".cif"),
            "-o", os.path.join(d, chip + ".out.wl")]


def suite_passes(mode, d, pins, run, rng, seconds, max_passes=None):
    """Whole passes over the seven chips (seeded order) until `seconds`
    have elapsed; every output is checked against its pin."""
    walls = {c: [] for c in CHIPS}
    rss = 0.0
    spawn(ace_args(mode, "cherry", d))  # warm the executable's pages
    t_start = time.perf_counter()
    passes = 0
    while True:
        for chip in rng.sample(CHIPS, len(CHIPS)):
            wall, mb, code = spawn(ace_args(mode, chip, d))
            out = read(os.path.join(d, chip + ".out.wl"))
            if run.check(code == 0 and md5(out) == pins["suite"][chip]["md5"],
                         "%s %s: exit %d or wirelist differs from pin" % (mode, chip, code)):
                walls[chip].append(wall)
            rss = max(rss, mb)
        passes += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds or (max_passes and passes >= max_passes):
            break
    return walls, rss, passes, elapsed


def workload_suite(mode, seed, seconds, trace, pins, run):
    d, setup_s = suite_setup(pins)
    rng = random.Random(seed)
    out = []
    if not trace:
        walls, rss, passes, elapsed = suite_passes(mode, d, pins, run, rng, seconds)
        med = {c: statistics.median(w) for c, w in walls.items() if w}
        if len(med) != len(CHIPS):
            return out, {}
        vals = list(med.values())
        suite_s = sum(vals)
        out.append("%d passes in %.1f s; per-chip median process wall:" % (passes, elapsed))
        out += ["  %-9s %8.3f s" % (c, med[c]) for c in CHIPS]
        out.append("suite_s %.4f s (sum over the seven chips)" % suite_s)
        metrics = {
            "setup_s": (setup_s, "s"),
            "suite_s": (suite_s, "s"),
            "req_p50_ms": (quantile(vals, 0.5) * 1e3, "ms"),
            "req_p90_ms": (quantile(vals, 0.9) * 1e3, "ms"),
            "req_per_s": (len(CHIPS) * passes / elapsed, "1/s"),
            "peak_rss_mb": (rss, "MB"),
        }
        return out, metrics
    walls, _, _, _ = suite_passes(mode, d, pins, run, rng, 1e9, TRACE_PASSES)
    led = json.loads(harness("trace-suite", d, mode, str(TRACE_REPS)))
    for ch in led["chips"]:
        wl = read(os.path.join(d, ch["name"] + ".trace.wl"))
        run.check(md5(wl) == pins["suite"][ch["name"]]["md5"],
                  "traced %s: wirelist differs from pin" % ch["name"])
    return suite_ledger(mode, led, walls, out)


def med_rep(ch, key):
    return statistics.median(ch["reps"][key])


def suite_ledger(mode, led, walls, out):
    tiled = mode == "tiled"
    extract = "parallel.extract" if tiled else "core.extract"
    order = ["cif.parse", "cif.design", extract, "netlist.format", "netlist.write"]
    out.append("ledger (median seconds; process wall = layers + unattributed):")
    out.append("  %-9s %8s " % ("chip", "wall") + " ".join("%16s" % l for l in order)
               + " %13s" % "unattributed")
    tot = {l: 0.0 for l in order}
    unattributed = 0.0
    agg = {}

    def add(k, v):
        agg[k] = agg.get(k, 0.0) + v

    for ch in led["chips"]:
        wall = statistics.median(walls[ch["name"]])
        layers = {l: ch["layers"][l]["s"] for l in order}
        rest = wall - sum(layers.values())
        unattributed += rest
        for l in order:
            tot[l] += layers[l]
        out.append("  %-9s %8.4f " % (ch["name"], wall)
                   + " ".join("%16.4f" % layers[l] for l in order) + " %13.4f" % rest)
        boxes = med_rep(ch, "boxes")
        for k in ["bytes", "boxes", "wl_bytes", "cif.parse_string_s", "core.extract_s",
                  "core.front_end_s", "core.list_update_s", "core.devices_s"]:
            add(k, med_rep(ch, k))
        for k in ["uf_finds", "active_merges", "expansions", "alloc_words"]:
            add("core." + k, med_rep(ch, "core.%s_per_box" % k) * boxes)
        add("cif.parse_words", med_rep(ch, "cif.parse_words"))
        add("netlist.format_words", med_rep(ch, "netlist.format_words"))
        if tiled:
            for k in ["parallel.stitch_s", "parallel.tile_steals", "parallel.seam_merges"]:
                add(k, med_rep(ch, k))
            agg.setdefault("balance", []).append(med_rep(ch, "parallel.balance"))
        for key, vals in ch["reps"].items():
            if key.endswith("words") or key.endswith("_per_box"):
                if len(set(vals)) != 1:
                    out.append("  note: %s %s did not repeat exactly: %s" % (ch["name"], key, vals))
    overhead = statistics.median(
        t / u for t, u in zip(led["traced_s"], led["untraced_s"]))
    m = zero_layers()
    m.update({
        "cif.parse_s": tot["cif.parse"],
        "cif.parse_string_s": agg["cif.parse_string_s"],
        "cif.design_s": tot["cif.design"],
        "cif.alloc_words_per_byte": agg["cif.parse_words"] / agg["bytes"],
        "core.extract_s": agg["core.extract_s"],
        "core.front_end_s": agg["core.front_end_s"],
        "core.list_update_s": agg["core.list_update_s"],
        "core.devices_s": agg["core.devices_s"],
        "core.uf_finds_per_box": agg["core.uf_finds"] / agg["boxes"],
        "core.active_merges_per_box": agg["core.active_merges"] / agg["boxes"],
        "core.expansions_per_box": agg["core.expansions"] / agg["boxes"],
        "core.alloc_words_per_box": agg["core.alloc_words"] / agg["boxes"],
        "netlist.format_s": tot["netlist.format"],
        "netlist.write_s": tot["netlist.write"],
        "netlist.bytes": agg["wl_bytes"],
        "netlist.alloc_words_per_byte": agg["netlist.format_words"] / agg["wl_bytes"],
        "proc.unattributed_s": unattributed,
        "trace.overhead": overhead,
    })
    if tiled:
        m.update({
            "parallel.extract_s": tot[extract],
            "parallel.stitch_s": agg["parallel.stitch_s"],
            "parallel.balance": statistics.median(agg["balance"]),
            "parallel.tile_steals": agg["parallel.tile_steals"],
            "parallel.seam_merges": agg["parallel.seam_merges"],
            "parallel.speedup": agg["core.extract_s"] / tot[extract],
        })
    out.append("  %-9s %8.4f " % ("total", sum(statistics.median(w) for w in walls.values()))
               + " ".join("%16.4f" % tot[l] for l in order) + " %13.4f" % unattributed)
    return out, m


# ---------------------------------------------------------------------
# aced_mixed


def extract_line(rid, name, cif):
    return (json.dumps({"id": rid, "op": "extract", "name": name, "cif": cif},
                       separators=(",", ":")) + "\n").encode()


def lvs_line(rid, cif, ref, hier):
    return (json.dumps({"id": rid, "op": "lvs", "cif": cif, "ref": ref,
                        "hier": hier, "cache": False},
                       separators=(",", ":")) + "\n").encode()


class Daemon:
    def __init__(self, cache_dir):
        self.sock_path = os.path.join(WORK, "aced.sock")
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        self.proc = subprocess.Popen(
            [ACED, "--socket", self.sock_path, "--cache-dir", cache_dir],
            stdout=subprocess.DEVNULL, stderr=sys.stderr)
        self.rusage = None
        deadline = time.monotonic() + 30
        while True:
            try:
                c = self.connect()
                break
            except OSError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    die("aced did not start")
                time.sleep(0.01)
        c.call(b'{"id":0,"op":"ping"}\n')
        c.close()

    def connect(self):
        return Conn(self.sock_path)

    def stop(self):
        """Shut down through the protocol, then reap (kill if it hangs)."""
        if self.rusage is not None:
            return
        try:
            c = self.connect()
            c.call(b'{"id":0,"op":"shutdown"}\n')
            c.close()
        except OSError:
            pass
        deadline = time.monotonic() + 20
        while True:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.rusage = ru
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                return
            if time.monotonic() > deadline:
                self.proc.send_signal(signal.SIGKILL)
                _, status, self.rusage = os.wait4(self.proc.pid, 0)
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                return
            time.sleep(0.01)


class Conn:
    def __init__(self, path):
        self.s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.s.connect(path)
        except OSError:
            self.s.close()
            raise
        self.f = self.s.makefile("rb", buffering=1 << 20)

    def call(self, line):
        self.s.sendall(line)
        reply = self.f.readline()
        if not reply:
            raise OSError("connection closed")
        return reply

    def close(self):
        self.f.close()
        self.s.close()


def aced_inputs(seed, seconds, d):
    """Generate the inputs and encode every distinct request once."""
    ncold = max(40, 15 * seconds)
    man = json.loads(harness("gen-aced", d, str(seed), str(ncold)))
    warm = [(w["name"], extract_line("w_" + w["name"], w["name"],
                                     read(os.path.join(d, w["file"])).decode()))
            for w in man["warm"]]
    cold = [(c["name"], c["file"], c["devices"],
             extract_line("c", c["name"], read(os.path.join(d, c["file"])).decode()))
            for c in man["cold"]]
    lvs = [(x["name"], lvs_line("l", read(os.path.join(d, x["cif"])).decode(),
                                read(os.path.join(d, x["ref"])).decode(), x["hier"]),
            x["expect"]) for x in man["lvs"]]
    for name, cif, ref, hier, expect in LVS_FIXTURES:
        lvs.append((name, lvs_line("l", read(os.path.join("data", cif)).decode(),
                                   read(os.path.join("data", ref)).decode(), hier),
                    expect))
    return warm, cold, lvs, len(man["lvs"])


def aced_sequence(seed, ncold, nwarm, ngen, nlvs):
    """The seeded request mix, ending when the cold pool is used up.

    Stratified, so the mix itself does not vary from seed to seed: every
    block of 20 requests holds 13 warm, 4 cold and 3 lvs requests in a
    seeded order; warm requests walk the seven chips and lvs requests
    the pool in seeded permutations.  Two of every three lvs requests go
    to the generated blocks, so the class median is set by hext/lvs work
    rather than by the tiny fixtures."""
    rng = random.Random(seed)

    def cycle(lo, hi):
        while True:
            yield from rng.sample(range(lo, hi), hi - lo)

    pick = {"warm": cycle(0, nwarm), "gen": cycle(0, ngen), "fix": cycle(ngen, nlvs)}
    seq, next_cold = [], 0
    while next_cold < ncold:
        block = ["warm"] * 13 + ["cold"] * 4 + ["gen"] * 2 + ["fix"]
        rng.shuffle(block)
        for kind in block:
            if kind == "cold":
                seq.append(("cold", next_cold))
                next_cold += 1
            else:
                seq.append(("warm" if kind == "warm" else "lvs", next(pick[kind])))
    return seq


def aced_setup(seed, seconds):
    d = os.path.join(WORK, "aced")
    times = []
    daemon = None
    try:
        for _ in range(SETUP_REPS):
            if daemon:
                daemon.stop()
            fresh_dir(d)
            t0 = time.perf_counter()
            warm, cold, lvs, ngen = aced_inputs(seed, seconds, d)
            daemon = Daemon(os.path.join(d, "cache"))
            c = daemon.connect()
            warmup = [c.call(line) for _, line in warm]
            c.close()
            times.append(time.perf_counter() - t0)
    except BaseException:
        if daemon:
            daemon.stop()
        raise
    return d, daemon, warm, cold, (lvs, ngen), warmup, statistics.median(times)


def closed_loop(daemon, seq, warm, cold, lvs, expected_warm, seconds):
    """CLIENTS connections, each sending its next request only after the
    previous reply arrived, until `seconds` have elapsed."""
    lock = threading.Lock()
    state = {"next": 0}
    results = [None] * len(seq)
    deadline = [0.0]

    def client():
        conn = daemon.connect()
        try:
            while True:
                with lock:
                    i = state["next"]
                    if i >= len(seq) or time.perf_counter() >= deadline[0]:
                        return
                    state["next"] = i + 1
                cls, k = seq[i]
                line = warm[k][1] if cls == "warm" else cold[k][3] if cls == "cold" else lvs[k][1]
                t0 = time.perf_counter()
                try:
                    reply = conn.call(line)
                except OSError:
                    results[i] = (cls, k, 0.0, time.perf_counter(), None)
                    return
                t1 = time.perf_counter()
                # warm replies are checked byte for byte here; the rest
                # are kept and checked after the window
                keep = (reply == expected_warm[k] or None) if cls == "warm" else reply
                results[i] = (cls, k, t1 - t0, t1, keep)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    t_start = time.perf_counter()
    deadline[0] = t_start + seconds
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    done = [r for r in results if r is not None]
    elapsed = max([r[3] for r in done], default=t_start) - t_start
    if state["next"] >= len(seq):
        log("perfbench: request sequence exhausted before the window closed")
    return done, t_start, elapsed


def check_aced(d, pins, run, warm, cold, lvs, warmup, done, seed):
    for (name, _), reply in zip(warm, warmup):
        r = json.loads(reply)
        res = r.get("result", {})
        pin = pins["warm"][name]
        run.check(r.get("ok") and r.get("cached") is False
                  and md5(res.get("wirelist", "").encode()) == pin["md5"]
                  and res.get("devices") == pin["devices"] and res.get("nets") == pin["nets"],
                  "warm-up %s: reply differs from pin" % name)
    used_cold = []
    for cls, k, _, _, keep in done:
        if keep is None:
            run.check(False, "%s request %d: no reply, or a warm reply that differs"
                      " from its cold reply" % (cls, k))
        elif cls == "warm":
            run.attempted += 1  # compared byte for byte in the client loop
        elif cls == "cold":
            r = json.loads(keep)
            res = r.get("result", {})
            used_cold.append((k, r.get("ok") and r.get("cached") is False
                              and res.get("devices") == cold[k][2],
                              md5(res.get("wirelist", "").encode())))
        else:
            r = json.loads(keep)
            run.check(r.get("ok") and r.get("result", {}).get("verdict") == lvs[k][2],
                      "lvs %s: verdict %s, expected %s"
                      % (lvs[k][0], r.get("result", {}).get("verdict"), lvs[k][2]))
    if used_cold:
        specs = ["%s:%s" % (os.path.join(d, cold[k][1]), cold[k][0]) for k, _, _ in used_cold]
        flat = [json.loads(l) for l in harness("flat", *specs).splitlines()]
        for (k, ok, digest), ref in zip(used_cold, flat):
            run.check(ok and digest == ref["md5"],
                      "cold %s: reply differs from the flat extraction" % cold[k][0])
        pick = random.Random(seed).sample(specs, min(ORACLE_BLOCKS, len(specs)))
        for l in harness("oracle", *pick).splitlines():
            o = json.loads(l)
            run.check(o["region"]["verdict"] == o["raster"]["verdict"] == "clean",
                      "oracle %s: baselines disagree with the flat extractor" % o["name"])


def window_figures(done, nwarm, width):
    """suite_s, request percentiles and rate over one stretch of requests."""
    lat = [r[2] for r in done]
    f = {"req_p50_ms": quantile(lat, 0.5) * 1e3,
         "req_p90_ms": quantile(lat, 0.9) * 1e3,
         "req_per_s": len(done) / width}
    per_chip = [[r[2] for r in done if r[0] == "warm" and r[1] == k] for k in range(nwarm)]
    if all(per_chip):
        f["suite_s"] = sum(statistics.median(v) for v in per_chip)
    return f


def workload_aced(seed, seconds, trace, pins, run):
    d, daemon, warm, cold, (lvs, ngen), warmup, setup_s = aced_setup(seed, seconds)
    try:
        expected_warm = [w.replace(b'"cached":false', b'"cached":true', 1) for w in warmup]
        seq = aced_sequence(seed, len(cold), len(warm), ngen, len(lvs))
        done, t_start, elapsed = closed_loop(daemon, seq, warm, cold, lvs,
                                             expected_warm, seconds)
        c = daemon.connect()
        stats = json.loads(c.call(b'{"id":0,"op":"stats"}\n'))
        c.close()
    finally:
        daemon.stop()
    check_aced(d, pins, run, warm, cold, lvs, warmup, done, seed)
    done = [r for r in done if r[4] is not None]
    if not done:
        return [], {}
    lat = [r[2] for r in done]
    by = {cls: [r[2] for r in done if r[0] == cls] for cls in MIX}
    per_chip = {w[0]: [r[2] for r in done if r[0] == "warm" and r[1] == k]
                for k, w in enumerate(warm)}
    cache = stats.get("cache") or {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    out = ["%d requests in %.1f s over %d closed-loop connections"
           % (len(done), elapsed, CLIENTS)]
    for cls in MIX:
        out.append("  %-5s %5d requests  p50 %8.2f ms  p90 %8.2f ms"
                   % (cls, len(by[cls]), quantile(by[cls], 0.5) * 1e3,
                      quantile(by[cls], 0.9) * 1e3))
    for cls in MIX:
        out.append("%s_p50_ms %.3f ms" % (cls, quantile(by[cls], 0.5) * 1e3))
    out.append("cache hit ratio %.3f (%d lookups)"
               % (cache.get("hits", 0) / max(1, lookups), lookups))
    if any(not v for v in per_chip.values()):
        return out, {}
    suite_s = sum(statistics.median(v) for v in per_chip.values())
    out.append("suite_s %.4f s (sum over the seven chips of the warm p50)" % suite_s)
    if not trace:
        # the figures are medians over equal stretches of the window, so
        # a few seconds of interference from outside does not set them
        width = elapsed / SUBWINDOWS
        parts = [window_figures([r for r in done
                                 if i * width <= r[3] - t_start < (i + 1) * width
                                 or (i == SUBWINDOWS - 1 and r[3] - t_start >= elapsed)],
                                len(warm), width)
                 for i in range(SUBWINDOWS)]
        out.append("per stretch of %.1f s: " % width + "; ".join(
            " ".join("%s %.4g" % kv for kv in sorted(p.items())) for p in parts))
        figures = {k: statistics.median(p[k] for p in parts if k in p)
                   for k in ["suite_s", "req_p50_ms", "req_p90_ms", "req_per_s"]}
        units = {"suite_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms", "req_per_s": "1/s"}
        metrics = {k: (v, units[k]) for k, v in figures.items()}
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (daemon.rusage.ru_maxrss / 1024.0, "MB")
        return out, metrics
    return aced_ledger(d, warm, cold, lvs, done, by, cache, lookups, out)


def aced_ledger(d, warm, cold, lvs, done, by, cache, lookups, out):
    replay = os.path.join(d, "replay.tsv")
    served = done[:REPLAY_REQUESTS]
    with open(replay, "wb") as f:
        for _, line in warm:
            f.write(b"setup\t" + line)
        for cls, k, _, _, _ in served:
            line = warm[k][1] if cls == "warm" else cold[k][3] if cls == "cold" else lvs[k][1]
            f.write(cls.encode() + b"\t" + line)
    led = json.loads(harness("trace-aced", d, replay, str(REPLAY_REPS)))
    rows = led["requests"]

    def rows_of(cls):
        return [r for r in rows if cls is None or r["class"] == cls]

    def med(cls, *keys, scale=1.0):
        """Median, over the class's requests that ran the first layer, of
        the summed self times of `keys`."""
        v = [sum(r["layers"].get(k, {"s": 0.0})["s"] for k in keys) * scale
             for r in rows_of(cls) if keys[0] in r["layers"]]
        return statistics.median(v) if v else 0.0

    def facts(key, cls=None):
        return [r["facts"][key] for r in rows_of(cls) if key in r["facts"]]

    def handle_ms(cls):
        return statistics.median(r["handle_s"] for r in rows_of(cls)) * 1e3

    def fmed(key, cls=None):
        v = facts(key, cls)
        return statistics.median(v) if v else 0.0

    # ledger per request: client wall = handle + transport, and
    # handle = the layers' replayed self times + unattributed
    names = sorted({k for r in rows for k in r["layers"]})
    out.append("ledger (median ms per request class; client = handle + transport,"
               " handle = layers + unattributed):")
    for cls in MIX:
        rs = [(r, s) for r, s in zip(rows, served) if r["class"] == cls]
        if not rs:
            continue
        client = statistics.median(s[2] for _, s in rs) * 1e3
        handle = statistics.median(r["handle_s"] for r, _ in rs) * 1e3
        layer = {n: statistics.median(r["layers"][n]["s"] if n in r["layers"] else 0.0
                                      for r, _ in rs) * 1e3 for n in names}
        rest = statistics.median(
            r["handle_s"] - sum(v["s"] for v in r["layers"].values()) for r, _ in rs) * 1e3
        out.append("  %-5s client %8.3f  transport %8.3f  handle %8.3f  unattributed %8.3f"
                   % (cls, client, client - handle, handle, rest))
        out.append("        " + "  ".join("%s %.3f" % (n, v) for n, v in layer.items() if v))
    client_p50 = quantile([s[2] for s in served], 0.5) * 1e3
    handle_p50 = handle_ms(None)
    boxes = sum(facts("boxes", "cold")) or 1.0
    m = zero_layers()
    m.update({
        "cif.parse_string_s": med(None, "cif.parse_string"),
        "cif.design_s": med(None, "cif.design"),
        "cif.alloc_words_per_byte": sum(facts("parse_words")) / sum(facts("cif_bytes")),
        "core.extract_s": med("cold", "core.extract"),
        "core.front_end_s": fmed("core.front_end_s", "cold"),
        "core.list_update_s": fmed("core.list_update_s", "cold"),
        "core.devices_s": fmed("core.devices_s", "cold"),
        "core.uf_finds_per_box": sum(facts("uf_finds", "cold")) / boxes,
        "core.active_merges_per_box": sum(facts("active_merges", "cold")) / boxes,
        "core.expansions_per_box": sum(facts("expansions", "cold")) / boxes,
        "core.alloc_words_per_box": sum(facts("core_words", "cold")) / boxes,
        "netlist.format_s": med("cold", "netlist.format"),
        "netlist.bytes": fmed("wl_bytes", "cold"),
        "netlist.alloc_words_per_byte": sum(facts("format_words", "cold")) / (sum(facts("wl_bytes", "cold")) or 1),
        "serve.handle_warm_ms": handle_ms("warm"),
        "serve.handle_cold_ms": handle_ms("cold"),
        "serve.handle_lvs_ms": handle_ms("lvs"),
        "serve.transport_ms": client_p50 - handle_p50,
        "serve.hit_ratio": cache.get("hits", 0) / max(1, lookups),
        "serve.cache_find_ms": med(None, "serve.cache_find", scale=1e3),
        "serve.cache_store_ms": med(None, "serve.cache_store", scale=1e3),
        "hext.extract_s": med("lvs", "hext.extract"),
        "hext.leaf_extractions": sum(facts("hext.leaf_extractions")),
        "hext.window_hits": sum(facts("hext.window_hits")),
        "hext.compose_hits": sum(facts("hext.compose_hits")),
        "lvs.ref_load_s": med("lvs", "lvs.ref_load", "lvs.ref_view"),
        "lvs.match_s": med("lvs", "lvs.match"),
        "lvs.hier_s": med("lvs", "lvs.hier"),
        "lvs.cell_hits": sum(facts("lvs.cell_hits")),
        "lvs.fallbacks": sum(facts("lvs.fallbacks")),
        "aced.warm_p50_ms": quantile(by["warm"], 0.5) * 1e3,
        "aced.cold_p50_ms": quantile(by["cold"], 0.5) * 1e3,
        "aced.lvs_p50_ms": quantile(by["lvs"], 0.5) * 1e3,
        "trace.overhead": statistics.median(
            t / u for t, u in zip(led["traced_s"], led["untraced_s"])),
    })
    return out, m


# ---------------------------------------------------------------------


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def zero_layers():
    """Every per-layer metric; a layer the workload's path bypasses reads 0."""
    return {m["name"]: 0.0 for m in load_spec()["per_layer"]}


def provenance(workload, seed, pins):
    cores = len(os.sched_getaffinity(0))
    if workload == "aced_mixed":
        what = ("Chips.paper_suite %s at scale %g (warm), random_logic cells=%d"
                " seeded from the workload seed (cold, lvs), data/ fixtures (lvs);"
                " %d closed-loop clients" % (",".join(CHIPS), pins["warm_scale"],
                                             pins["cold_cells"], CLIENTS))
    else:
        what = "Chips.paper_suite %s at scale %g" % (",".join(CHIPS), pins["suite_scale"])
    return "provenance: workload %s, seed %d, %s; %d cores" % (workload, seed, what, cores)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    # a terminated run still stops the daemon (the finally blocks run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    if a.seconds < 1:
        die("--seconds must be at least 1")
    missing = [p for p in REQUIRED + ["BENCHMARK.json"] if not os.path.exists(p)]
    if missing:
        die("not the root of a full checkout (missing %s)" % ", ".join(missing))
    spec = load_spec()
    build()
    os.makedirs(WORK, exist_ok=True)
    with open(PINS) as f:
        pins = json.load(f)
    run = Run()
    if a.workload == "aced_mixed":
        out, metrics = workload_aced(a.seed, a.seconds, a.trace, pins, run)
    else:
        mode = "flat" if a.workload == "flat_suite" else "tiled"
        out, metrics = workload_suite(mode, a.seed, a.seconds, a.trace, pins, run)
    if a.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: (v, units[k]) for k, v in metrics.items()}
    wanted = [m["name"] for m in spec["per_layer" if a.trace else "end_to_end"]]
    complete = sorted(metrics) == sorted(wanted)
    print(provenance(a.workload, a.seed, pins))
    for line in out:
        print(line)
    for p in run.problems:
        print("FAILED: " + p)
    print("error_rate %.4f (%d failed of %d attempted)"
          % (run.failed / max(1, run.attempted), run.failed, run.attempted))
    for name in wanted:
        if name in metrics:
            print("%-30s %14.6f %s" % (name, metrics[name][0], metrics[name][1]))
    print(json.dumps({
        "correct": run.failed == 0 and complete and run.attempted > 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed if run.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
