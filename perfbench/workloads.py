"""The benchmark's three workloads.

Each workload is a closed loop with one client: the next op starts when
the previous one returns.  A run is a fixed, seed-determined sequence of
*cycles*; cycle 0 is the untimed warm-up.  ``cycle`` runs one cycle's
ops untraced through the public entry points a user calls, and
``traced_cycle`` makes the same calls one layer at a time under a
:class:`~measure.Tracer`, returning outputs that must equal the
untraced ones.  All inputs derive from ``--seed`` and the cycle index.

GLOSSARY.md (next to this file) says why each workload exists and which
metric each layer should move.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from measure import OpRecorder, Tracer, p50, percentile, quarter_medians, tail

K = 3
DENSITY = 10.0


def timing_row(name: str, values_s: List[float]) -> dict:
    """One printed timing: p50, tail, sample count, drift quarters."""
    ms = [v * 1e3 for v in values_s]
    first, last = quarter_medians(ms)
    row = {"name": name, "unit": "ms", "value": p50(ms), "n": len(ms),
           "q1_p50": first, "q4_p50": last}
    t = tail(ms)
    if t is not None:
        row["tail"] = t
    return row


def cycle_seed(seed: int, c: int, width: int = 1) -> int:
    """Cycle ``c``'s input seed; every cycle of a run has its own
    inputs, and ``width`` consecutive seeds are reserved per cycle."""
    return (seed * 100_003 + c) * width


# ======================================================================
# udg: generate -> solve -> verify
# ======================================================================

class UDGWorkload:
    """Algorithm 3 on fresh and resident UDG deployments at n = 10^4.

    A cycle is one cold op (a fresh graph object, solve, verify),
    ``WARM`` warm ops (re-solve with another seed, verify) and one
    16-seed batch op.
    """

    name = "udg"
    n = 10_000
    WARM = 8
    BATCH = 16
    #: Report rows that are the end-to-end op1_ms, op2_ms, op3_ms.
    SLOTS = ("cold_p50_ms", "warm_p50_ms", "batch16_p50_ms")
    #: Wall time of one cycle with its checks on a 2-vCPU x86 VM, used
    #: only to turn ``--seconds`` into a fixed cycle count.
    cycle_estimate_s = 3.0

    def setup(self, seed: int, traced: bool = False) -> None:
        self.seed = seed

    def _seeds(self, c: int):
        base = cycle_seed(self.seed, c, 64)
        warm = [base + 1 + j for j in range(self.WARM)]
        batch = [base + 1 + j for j in range(self.BATCH)]
        return base, warm, batch

    # ------------------------------------------------------------------
    def cycle(self, rec: OpRecorder, c: int) -> list:
        from repro.core.udg import solve_kmds_udg, solve_kmds_udg_batch
        from repro.core.verify import is_k_dominating_set
        from repro.graphs.udg import random_udg

        cold_seed, warm_seeds, batch_seeds = self._seeds(c)
        state = {}

        def cold():
            g = random_udg(self.n, density=DENSITY, seed=cold_seed)
            ds = solve_kmds_udg(g, k=K, seed=cold_seed)
            state["g"] = g
            return ds.members, is_k_dominating_set(g, ds.members, K)

        outs = [rec.op("cold", cold, check=lambda o: o[1])]
        g = state.get("g")

        def warm(s):
            ds = solve_kmds_udg(g, k=K, seed=s)
            return ds.members, is_k_dominating_set(g, ds.members, K)

        for s in warm_seeds:
            outs.append(rec.op("warm", lambda s=s: warm(s),
                               check=lambda o: o[1]))
        warm_members = [o[0] if o else None for o in outs[1:]]

        def batch():
            return [ds.members for ds in
                    solve_kmds_udg_batch(g, batch_seeds, k=K)]

        def batch_ok(replicas):
            # Replica i must equal a single solve with seed i.  The warm
            # ops made the first WARM of those solves; one more replica,
            # rotating with the cycle, is solved for the check.
            extra = self.WARM + c % (self.BATCH - self.WARM)
            singles = {i: m for i, m in enumerate(warm_members)}
            singles[extra] = solve_kmds_udg(g, k=K,
                                            seed=batch_seeds[extra]).members
            return (len(replicas) == len(batch_seeds)
                    and all(replicas[i] == m for i, m in singles.items()))

        outs.append(rec.op("batch16", batch, check=batch_ok))
        return outs

    # ------------------------------------------------------------------
    def traced_cycle(self, tr: Tracer, c: int) -> list:
        from repro.core.udg import (part_one_leaders, solve_kmds_udg,
                                    solve_kmds_udg_batch)
        from repro.core.verify import is_k_dominating_set
        from repro.engine.artifacts import cache_stats, graph_artifacts
        from repro.engine.kernels import udg_distance_csr
        from repro.graphs.udg import random_udg
        from repro.simulation.vecrng import node_stream_pool

        cold_seed, warm_seeds, batch_seeds = self._seeds(c)
        before = cache_stats()

        def solve_and_verify(g, s):
            ds = tr.call("core.udg.solve_kmds_udg", solve_kmds_udg, g,
                         k=K, seed=s)
            ok = tr.call("core.verify.is_k_dominating_set",
                         is_k_dominating_set, g, ds.members, K)
            tr.count("core.udg.members", len(ds.members))
            tr.count("core.udg.rounds", ds.stats.rounds)
            tr.count("core.udg.messages_sent", ds.stats.messages_sent)
            return ds.members, ok

        def decompose(g, s, members):
            # Outside the op: the seeding and Part I that solve_kmds_udg
            # runs internally, timed through their public entry points.
            tr.call("simulation.vecrng.node_stream_pool", node_stream_pool,
                    range(self.n), s)
            leaders = tr.call("core.udg.part_one_leaders", part_one_leaders,
                              g, seed=s)
            if not leaders.members <= members:
                raise RuntimeError("Part I leaders missing from the "
                                   "final set")

        with tr.op("cold"):
            g = tr.call("graphs.udg.random_udg", random_udg, self.n,
                        density=DENSITY, seed=cold_seed)
            tr.call("engine.artifacts.graph_artifacts", graph_artifacts, g)
            tr.call("engine.kernels.udg_distance_csr", udg_distance_csr, g)
            out = solve_and_verify(g, cold_seed)
        outs = [out]
        tr.count("graphs.udg.edges", g.nx.number_of_edges())
        decompose(g, cold_seed, out[0])
        for s in warm_seeds:
            with tr.op("warm"):
                out = solve_and_verify(g, s)
            outs.append(out)
            decompose(g, s, out[0])
        with tr.op("batch16"):
            res = tr.call("core.udg.solve_kmds_udg_batch",
                          solve_kmds_udg_batch, g, batch_seeds, k=K)
        outs.append([ds.members for ds in res])
        after = cache_stats()
        tr.count("engine.artifacts.cache_hits",
                 after["hits"] - before["hits"])
        tr.count("engine.artifacts.cache_misses",
                 after["misses"] - before["misses"])
        return outs

    # ------------------------------------------------------------------
    def report(self, samples) -> List[dict]:
        return [timing_row("cold_p50_ms", samples["cold"]),
                timing_row("warm_p50_ms", samples["warm"]),
                timing_row("batch16_p50_ms", samples["batch16"])]


# ======================================================================
# message: build -> message run -> collect
# ======================================================================

class MessageWorkload:
    """Algorithms 1, 2 and 3 as message-passing protocols at n = 5000.

    The graph, its artifacts and ``feasible_coverage(udg, 3)`` are built
    in set-up.  A cycle runs Algorithm 1 then Algorithm 2 (together
    exactly what ``solve_kmds_general(coverage=..., t=2,
    mode="message")`` calls) and then Algorithm 3
    (``solve_kmds_udg(k=3, mode="message")``), each with the cycle's
    seed.
    """

    name = "message"
    n = 5000
    T = 2
    SLOTS = ("msg_general_p50_ms", "msg_udg_p50_ms", "msg_alg1_p50_ms")
    cycle_estimate_s = 0.85

    def setup(self, seed: int, traced: bool = False) -> None:
        from repro.core.fractional import fractional_kmds
        from repro.engine.artifacts import graph_artifacts
        from repro.graphs import feasible_coverage
        from repro.graphs.udg import random_udg

        self.seed = seed
        self.udg = random_udg(self.n, density=DENSITY, seed=seed)
        graph_artifacts(self.udg)
        self.cov = feasible_coverage(self.udg, K)
        # Algorithm 1 is deterministic: one direct-mode solve is the
        # reference every message-mode run must reproduce.
        self.x_direct = fractional_kmds(
            self.udg.nx, coverage=self.cov, t=self.T, mode="direct",
            compute_duals=False, seed=seed).x
        self.check_steppers()

    def check_steppers(self) -> None:
        """Fail the run unless every op's program resolves to the
        columnar stepper (a silent per-node fallback would time the
        reference loop instead)."""
        from benchmarks.bench_message import check_stepper_engaged
        from repro.core.fractional import FractionalProgram
        from repro.core.lp import CoveringLP
        from repro.core.rounding import RoundingProgram
        from repro.core.udg import UDGProgram

        check_stepper_engaged(t=self.T, seed=self.seed)
        lp = CoveringLP(self.udg.nx, self.cov)
        programs = {
            "alg1": FractionalProgram(lp, self.T, False),
            "alg2": RoundingProgram(lp, self.x_direct, "random", self.seed),
            "alg3": UDGProgram(self.udg, K, "random", self.seed)}
        for alg, program in programs.items():
            if not self.stepper_engaged(program):
                raise SystemExit(f"provenance: {alg} message run would not "
                                 "use the columnar stepper")

    @staticmethod
    def stepper_engaged(program, processes=None, seed=None) -> bool:
        from repro.simulation.columnar import resolve_stepper
        from repro.simulation.network import SynchronousNetwork

        procs = program.processes() if processes is None else processes
        net = SynchronousNetwork(program.network_graph, procs, seed=seed,
                                 **program.network_kwargs)
        return resolve_stepper(net, []) is not None

    # ------------------------------------------------------------------
    def cycle(self, rec: OpRecorder, c: int) -> list:
        from repro.core.fractional import fractional_kmds
        from repro.core.rounding import randomized_rounding
        from repro.core.udg import solve_kmds_udg
        from repro.core.verify import is_k_dominating_set

        s = cycle_seed(self.seed, c)
        g = self.udg.nx
        state = {}

        def alg1():
            frac = fractional_kmds(g, coverage=self.cov, t=self.T,
                                   mode="message", compute_duals=False,
                                   seed=s)
            state["x"] = frac.x
            return frac.x, frac.stats

        def alg2():
            ds = randomized_rounding(g, state["x"], coverage=self.cov,
                                     mode="message", seed=s)
            return ds.members, ds.stats

        def alg3():
            ds = solve_kmds_udg(self.udg, k=K, mode="message", seed=s)
            return ds.members, ds.stats

        def alg2_ok(out):
            direct = randomized_rounding(g, self.x_direct,
                                         coverage=self.cov, mode="direct",
                                         seed=s).members
            return out[0] == direct and is_k_dominating_set(
                g, out[0], self.cov, convention="closed")

        def alg3_ok(out):
            direct = solve_kmds_udg(self.udg, k=K, mode="direct",
                                    seed=s).members
            return out[0] == direct and is_k_dominating_set(
                self.udg, out[0], K)

        return [rec.op("alg1", alg1, check=lambda o: o[0] == self.x_direct),
                rec.op("alg2", alg2, check=alg2_ok),
                rec.op("alg3", alg3, check=alg3_ok)]

    # ------------------------------------------------------------------
    def traced_cycle(self, tr: Tracer, c: int) -> list:
        """``execute()``'s message branch rebuilt from its public pieces:
        ``program.processes()``, ``SynchronousNetwork(...)``,
        ``run_protocol(...)`` and ``program.collect(...)``."""
        from repro.core.fractional import FractionalProgram
        from repro.core.lp import CoveringLP
        from repro.core.rounding import RoundingProgram
        from repro.core.udg import UDGProgram
        from repro.simulation.network import SynchronousNetwork
        from repro.simulation.runner import run_protocol

        s = cycle_seed(self.seed, c)
        g = self.udg.nx

        def message_run(alg, program):
            procs = tr.call(f"{alg}.engine.program.processes",
                            program.processes)
            net = tr.call(f"{alg}.simulation.network.init",
                          SynchronousNetwork, program.network_graph, procs,
                          seed=s, **program.network_kwargs)
            stats = tr.call(f"{alg}.simulation.runner.run_protocol",
                            run_protocol, net,
                            max_rounds=program.max_rounds())
            result = tr.call(f"{alg}.engine.program.collect",
                             program.collect, procs, stats)
            tr.count(f"{alg}.rounds", stats.rounds)
            tr.count(f"{alg}.messages_sent", stats.messages_sent)
            tr.count(f"{alg}.bits_sent", stats.bits_sent)
            return result, program, procs

        runs = []
        with tr.op("alg1"):
            with tr.span("core.fractional.fractional_kmds"):
                lp = CoveringLP(g, self.cov)
                if lp.infeasible_witness() is not None:
                    raise RuntimeError("coverage map is infeasible")
                frac, *rest = message_run(
                    "alg1", FractionalProgram(lp, self.T, False))
        runs.append(("alg1", *rest))
        with tr.op("alg2"):
            with tr.span("core.rounding.randomized_rounding"):
                lp = CoveringLP(g, self.cov)
                if lp.infeasible_witness() is not None:
                    raise RuntimeError("coverage map is infeasible")
                ds2, *rest = message_run(
                    "alg2", RoundingProgram(lp, frac.x, "random", s))
        runs.append(("alg2", *rest))
        with tr.op("alg3"):
            ds3, *rest = message_run(
                "alg3", UDGProgram(self.udg, K, "random", s))
        runs.append(("alg3", *rest))
        # Outside the ops: the stepper verdict reads only process types
        # and network configuration, so it is the same after the run.
        for alg, program, procs in runs:
            if not self.stepper_engaged(program, procs, seed=s):
                raise SystemExit(f"provenance: traced {alg} ran without "
                                 "the columnar stepper")
            tr.count(f"{alg}.stepper_engaged", 1)
        return [(frac.x, frac.stats), (ds2.members, ds2.stats),
                (ds3.members, ds3.stats)]

    # ------------------------------------------------------------------
    def report(self, samples) -> List[dict]:
        general = [a + b for a, b in zip(samples["alg1"], samples["alg2"])]
        return [timing_row("msg_general_p50_ms", general),
                timing_row("msg_udg_p50_ms", samples["alg3"]),
                timing_row("msg_alg1_p50_ms", samples["alg1"]),
                timing_row("msg_alg2_p50_ms", samples["alg2"])]


# ======================================================================
# serve: churn epoch -> snapshot publish -> query batch
# ======================================================================

QUERY_KINDS = ("covered", "k_deficit", "dominator_of", "who_covers")
#: The serve op slots split an epoch's batches into the two status
#: kinds (plain gathers) and the two dominator kinds (which also pay the
#: snapshot's lazy dominator-CSR build on first use).
STATUS_KINDS = QUERY_KINDS[:2]
DOMINATOR_KINDS = QUERY_KINDS[2:]


class ServeWorkload:
    """``CoverageService`` stepped synchronously at n = 10^4.

    ``MaintenanceLoop(LocalPatchRepair())`` with the ``repro serve``
    defaults (no shards, thread executor, no demotion).  Each epoch
    crashes 16 dominators and admits Poisson(16) joins, so the live
    size stays stationary.  A cycle is two ops: one ``step_epoch``, then
    one query block of ``BATCHES`` batches of ``BATCH`` ids cycling
    through the four query kinds, each batch timed inside the block.
    """

    name = "serve"
    n = 10_000
    CHURN = 16
    BATCHES = 16
    BATCH = 2048
    #: Sampled ids per batch re-checked against the loop state.
    CHECKED = 32
    SLOTS = ("epoch_p50_ms", "status_block_p50_ms",
             "dominator_block_p50_ms")
    cycle_estimate_s = 0.23

    def setup(self, seed: int, traced: bool = False) -> None:
        self.seed = seed
        self.service = self._service(seed)
        self.service.start()
        self.rng = np.random.default_rng(seed + 7)
        # The traced run steps a twin service in lockstep: an epoch
        # cannot be replayed on the same state.
        self.twin = None
        if traced:
            self.twin = self._service(seed)
            self.twin.start()

    def _service(self, seed: int):
        from repro.dynamics import (LocalPatchRepair, MaintenanceLoop,
                                    PoissonJoins, RandomCrashes, Scenario)
        from repro.graphs.udg import random_udg
        from repro.service import CoverageService

        udg = random_udg(self.n, density=DENSITY, seed=seed)
        side = float(udg.points.max())
        scenario = Scenario(
            udg, k=K, epochs=0, seed=seed, name="serve",
            streams=[RandomCrashes(self.CHURN, target="dominators",
                                   seed=seed + 1),
                     PoissonJoins(self.CHURN, side, seed=seed + 2)])
        return CoverageService(MaintenanceLoop(scenario, LocalPatchRepair()))

    def _batches(self, snap) -> np.ndarray:
        # The id space LoadGenerator (``repro serve``) draws from: a
        # little past the largest live id, so dead and unknown ids
        # (legal traffic answered with sentinels) appear too.
        top = int(snap.nodes.max()) if snap.n else 0
        return self.rng.integers(0, top + 1 + max(1, top // 50),
                                 size=(self.BATCHES, self.BATCH))

    # ------------------------------------------------------------------
    def _expected(self, ids) -> tuple:
        """(deficit, covering dominators) per id, recomputed from the
        loop state's positions, liveness and member set by brute-force
        geometry (the UDG rule ``dx*dx + dy*dy <= r*r``), independent of
        the snapshot and its artifacts.  Reads only plain attributes, so
        the check materializes no lazy view the loop would otherwise
        not build."""
        state = self.service.loop.state
        epoch = self.service.loop.epochs_completed
        if getattr(self, "_geom_epoch", None) != epoch:
            live = np.fromiter(state.alive, dtype=np.int64)
            pos = np.array([state.positions[v] for v in live.tolist()],
                           dtype=np.float64).reshape(-1, 2)
            self._geom = (live, pos, set(live.tolist()), set(state.members),
                          state.radius ** 2)
            self._geom_epoch = epoch
        live, pos, alive, members, r2 = self._geom
        deficits, doms = [], []
        for v in ids.tolist():
            if v not in alive:
                deficits.append(K)
                doms.append(set())
                continue
            x, y = state.positions[v]
            dx, dy = pos[:, 0] - x, pos[:, 1] - y
            near = live[dx * dx + dy * dy <= r2].tolist()
            covering = {w for w in near if w != v and w in members}
            doms.append(covering)
            deficits.append(0 if v in members
                            else max(0, K - len(covering)))
        return deficits, doms, members

    def _check(self, kind, ids, out) -> bool:
        sample = ids[:self.CHECKED]
        deficits, doms, members = self._expected(sample)
        if kind == "covered":
            return [bool(b) for b in out[:self.CHECKED]] == \
                [d == 0 for d in deficits]
        if kind == "k_deficit":
            return out[:self.CHECKED].tolist() == deficits
        if kind == "who_covers":
            indptr, flat = out
            return all(set(flat[indptr[i]:indptr[i + 1]].tolist()) == doms[i]
                       for i in range(len(sample)))
        # dominator_of: a member answers for itself, a covered node names
        # its smallest-id covering member, an uncovered or unknown one
        # gets -1.
        for v, d, answer in zip(sample.tolist(), doms,
                                out[:self.CHECKED].tolist()):
            want = v if v in members else (min(d) if d else -1)
            if answer != want:
                return False
        return True

    def cycle(self, rec: OpRecorder, c: int) -> list:
        from repro.service import queries

        epoch = rec.op("epoch", self.service.step_epoch,
                       check=lambda o: o[1].fully_covered)
        snap = self.service.current()
        self.ids = self._batches(snap)
        kinds = [QUERY_KINDS[b % len(QUERY_KINDS)]
                 for b in range(self.BATCHES)]
        batch_s: List[float] = []

        def query_block():
            answers = []
            for kind, ids in zip(kinds, self.ids):
                fn = getattr(queries, kind)
                t0 = time.perf_counter()
                answers.append(fn(snap, ids))
                batch_s.append(time.perf_counter() - t0)
            return answers

        answers = rec.op("queries", query_block, check=lambda out: all(
            self._check(kind, ids, o)
            for kind, ids, o in zip(kinds, self.ids, out)))
        for kind, t in zip(kinds, batch_s):
            rec.part(f"q.{kind}", t)
        return [epoch, *(answers or [])]

    def traced_cycle(self, tr: Tracer, c: int) -> list:
        """``step_epoch`` rebuilt from ``loop.step()`` and
        ``EpochSnapshot.capture(...)``, then the same query batches on
        the twin's snapshot (the ids of the preceding untraced cycle)."""
        from repro.service import queries
        from repro.service.snapshot import EpochSnapshot

        loop = self.twin.loop
        with tr.op("epoch"):
            record = tr.call("dynamics.loop.step", loop.step)
            snap = tr.call("service.snapshot.capture", EpochSnapshot.capture,
                           loop.state, loop.scenario.k,
                           loop.epochs_completed)
        for field in ("crashes", "joins", "deficient_before", "repaired",
                      "promoted", "touched", "delta_patches",
                      "full_rebuilds"):
            tr.count(f"dynamics.{field}", getattr(record, field))
        tr.count("dynamics.members", record.n_members)
        outs = [(record, snap)]
        with tr.op("queries"):
            for b, ids in enumerate(self.ids):
                kind = QUERY_KINDS[b % len(QUERY_KINDS)]
                outs.append(tr.call(f"service.queries.{kind}",
                                    getattr(queries, kind), snap, ids))
        return outs

    # ------------------------------------------------------------------
    def block_ms(self, samples, kinds=QUERY_KINDS) -> List[float]:
        """Per epoch: the summed latency of its batches of ``kinds``."""
        cols = [samples[f"q.{k}"] for k in kinds]
        per = self.BATCHES // len(QUERY_KINDS)
        return [sum(sum(col[e * per:(e + 1) * per]) for col in cols)
                for e in range(len(samples["epoch"]))]

    def report(self, samples) -> List[dict]:
        batches = [v for k in QUERY_KINDS for v in samples[f"q.{k}"]]
        qps = len(batches) * self.BATCH / sum(batches)
        rows = [timing_row("epoch_p50_ms", samples["epoch"]),
                {"name": "query_qps", "unit": "1/s", "value": qps,
                 "n": len(batches)},
                {"name": "query_p99_ms", "unit": "ms",
                 "value": percentile(sorted(batches), 99.0) * 1e3,
                 "n": len(batches)},
                timing_row("query_block_p50_ms", samples["queries"]),
                timing_row("status_block_p50_ms",
                           self.block_ms(samples, STATUS_KINDS)),
                timing_row("dominator_block_p50_ms",
                           self.block_ms(samples, DOMINATOR_KINDS))]
        rows += [timing_row(f"query_{k}_p50_ms", samples[f"q.{k}"])
                 for k in QUERY_KINDS]
        return rows


WORKLOADS = {w.name: w for w in (UDGWorkload, MessageWorkload,
                                 ServeWorkload)}
