"""The four benchmark workloads.

Each is a closed loop with one client: the next item starts when the
previous one returns. Inputs come from the benchmark seed through
string-seeded ``random.Random`` streams; the library only ever sees the
generated inputs. Warm-up draws from its own stream, the same for every
seed so that set-up does the same work on every run, and every stream skips
inputs already drawn in the process, so no input repeats inside a timed
window.

A workload provides ``setup()`` (one set-up repetition, warm-up included),
``inputs(seed)`` (the timed stream), ``run(inp, tracer)`` (one timed item),
``check(inp, out)`` (the item's verdict facts, raising ``Mismatch`` when
an output is wrong) and ``calibrate()`` (one block of machine-speed
calibration timed between items; see speed.py).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import count, islice
from pathlib import Path

from extremenu import applications as apps
from extremenu import cli, exhaustive, extremality, model, perturb
from extremenu.presets import space_for_preset

from . import speed
from .checks import analyze_facts, check_analyze_certificate, require

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ("simplex", "cube", "monopoly")
DIMS = (2, 3, 4)
# run_command reads these attributes of the parsed CLI arguments
ANALYZE_FLAGS = type("Flags", (), {"delta": None, "nudge": False, "eps": None,
                                   "seed": 0, "sample": None})()


def child_env() -> dict:
    """Environment for child interpreters that import the checkout's package."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


class Workload:
    rss_of_children = False  # peak RSS of this process, or of its largest child
    chunks = 1  # calibration chunks in a block (perfbench/speed.py)
    min_items = 100  # per untraced run; leaves at least ten samples beyond p90

    # set by each workload: name, why, warmup_items, digest_items (the leading
    # items whose facts are compared with the reference at the default seed)

    def __init__(self, workdir):
        self.workdir = workdir

    def calibrate(self) -> list:
        """One calibration block: slowdowns measured between two items."""
        return speed.chunks(self.chunks)


def _unique(stream, seen, draw):
    """Endless stream of draw(rng, slot) results, skipping keys already seen.

    draw returns (key, input); slot i retries with a fresh rng on a repeat so
    that per-slot structure (dimension and preset cycles) is kept.
    """
    for slot in count():
        for attempt in count():
            rng = random.Random(f"{stream}/{slot}/{attempt}")
            key, inp = draw(rng, slot)
            if key not in seen:
                seen.add(key)
                yield inp
                break


class VerdictMixed(Workload):
    name = "verdict-mixed"
    why = ("acceptance-suite menus over d in {2,3,4} x {simplex, cube, monopoly} through "
           "analyze and render_report; certificates and absorption LPs dominate")
    warmup_items = 9
    digest_items = 27
    chunks = 2

    def setup(self):
        model.extended_menu.cache_clear()
        self.spaces = {(p, d): space_for_preset(p, d=d) for p in PRESETS for d in DIMS}
        self.seen = set()
        for inp in islice(self._menus("warmup"), self.warmup_items):
            self.run(inp, None)

    def _menus(self, stream):
        def draw(rng, slot):
            # the acceptance suite's distribution (k uniform in [2, 8]), stratified:
            # 9 and 7 are coprime, so every 63 slots hold each (preset, d, k) once
            # and each run has the same mix
            preset, d, k = PRESETS[slot % 3], DIMS[slot // 3 % 3], 2 + slot % 7
            items = apps.sample_menu(preset, d, k, rng)
            return (preset, d, frozenset(items)), (preset, d, items, f"{stream}/{slot}")

        return _unique(f"{self.name}/{stream}", self.seen, draw)

    def inputs(self, seed):
        return self._menus(f"timed/{seed}")

    def run(self, inp, tracer):
        preset, d, items, label = inp
        space, cone = self.spaces[preset, d]
        sc = model.validate_scenario(space, cone, items, label=label)
        return sc, cli.render_report(cli.run_command("analyze", sc, ANALYZE_FLAGS))

    def check(self, inp, out):
        sc, text = out
        report = json.loads(text)
        facts = analyze_facts(report)
        check_analyze_certificate(report, model.extended_menu(sc), sc.space)
        return facts


class ExperimentCube4(Workload):
    name = "experiment-cube4"
    why = ("genericity experiment on the 4-cube, one 10-item menu per call; every forced "
           "menu is extreme, so V->H, faces, rank and rref do the work")
    warmup_items = 2
    digest_items = 12
    chunks = 3  # items run for 0.1 s or more, so a longer block
    min_items = 140  # the tail of forced 4-cube menus is wide: 100 items leave p90 unsteady

    def setup(self):
        model.extended_menu.cache_clear()
        self.space, self.cone = space_for_preset("cube", d=4)
        self.seen = set()
        for inp in islice(self._seeds("warmup"), self.warmup_items):
            self.run(inp, None)

    def _seeds(self, stream):
        def draw(rng, slot):
            s = rng.randrange(2**31)
            menu = apps.sample_menu("cube", 4, 10, apps._instance_rng(s, 0))
            return frozenset(menu), s

        return _unique(f"{self.name}/{stream}", self.seen, draw)

    def inputs(self, seed):
        return self._seeds(f"timed/{seed}")

    def run(self, s, tracer):
        return apps.genericity_experiment("cube", 4, 10, 1, s)

    def check(self, s, summary):
        """Rebuild the forced menu the experiment classified and ask the
        independent oracles about it."""
        require(summary.samples == 1 and summary.seed == s, "wrong experiment summary")
        items = apps.sample_menu("cube", 4, 10, apps._instance_rng(s, 0))
        try:
            items = apps.force_exhaustive(items, self.space, self.cone)
        except model.ScenarioError:
            require(summary.exhaustive_after_forcing == 0, "unforceable menu counted")
            return {"exhaustive": 0}
        sc = model.validate_scenario(self.space, self.cone,
                                     dict.fromkeys(tuple(p) for p in items))
        em = model.extended_menu(sc)
        exh = exhaustive.is_exhaustive(em, self.space).exhaustive
        require(summary.exhaustive_after_forcing == int(exh), "exhaustiveness count differs")
        require(exhaustive.homothety_cross_check(em, self.space) == exh,
                "homothety oracle disagrees")
        facts = {"exhaustive": int(exh), "vertices": [[str(c) for c in v] for v in em.vertices]}
        if exh:
            oracle = extremality.def_polytope_cross_check(em, self.space)
            require(summary.extreme == int(oracle), "deformation-polytope oracle disagrees")
            require((summary.mean_nullity == 0) == oracle, "nullity contradicts verdict")
            facts.update(extreme=summary.extreme, nullity=str(summary.mean_nullity))
        return facts


class PerturbPrism3(Workload):
    name = "perturb-prism3"
    why = ("perturb_to_extreme on decomposable triangle x segment prisms in the 3-simplex "
           "(criterion 12, finer grid), delta 1/20; builds many candidate menus")
    warmup_items = 3
    digest_items = 20
    delta = Fraction(1, 20)
    grid = 64  # criterion 12 uses 16; 64 gives enough distinct prisms for a window

    def setup(self):
        model.extended_menu.cache_clear()
        self.space, self.cone = space_for_preset("simplex", d=3)
        self.seen = set()
        for inp in islice(self._prisms("warmup"), self.warmup_items):
            self.run(inp, None)

    def _prisms(self, stream):
        n = self.grid

        def draw(rng, slot):
            # criterion 12's ranges, scaled from sixteenths to 1/n: a >= n/8
            h = Fraction(rng.randrange(n // 8, 3 * n // 8 + 1), n)
            c1 = Fraction(rng.randrange(0, n // 4 + 1), n)
            c2 = Fraction(rng.randrange(0, n // 4 + 1), n)
            a = 1 - c1 - c2 - h
            b = Fraction(rng.randrange(n // 8, 7 * n // 16 + 1), n)
            if b >= a:
                b = a - Fraction(1, n)
            zero = Fraction(0)
            triangle = [(zero, zero, zero), (a, zero, zero), (zero, b, zero)]
            shifts = [(zero, zero, zero), (c1, c2, h)]
            items = tuple(sorted({tuple(x + y for x, y in zip(t, s))
                                  for t in triangle for s in shifts}))
            sc = model.validate_scenario(self.space, self.cone, items)
            return items, (sc, rng.randrange(2**31))

        return _unique(f"{self.name}/{stream}", self.seen, draw)

    def inputs(self, seed):
        return self._prisms(f"timed/{seed}")

    def run(self, inp, tracer):
        sc, pseed = inp
        return perturb.perturb_to_extreme(sc.menu, self.space, self.cone, self.delta, pseed)

    def check(self, inp, res):
        sc, _ = inp
        original = sc.menu.items
        require(not res.already_extreme, "a decomposable prism was called extreme")
        require(res.extremality.extreme, "perturbed menu not certified extreme")
        require(len(res.menu) == len(original), "perturbation changed the menu size")
        displacement = max(sum((x - y) ** 2 for x, y in zip(p, r))
                           for p, r in zip(original, res.menu))
        require(displacement <= self.delta ** 2, "an item moved farther than delta")
        em = model.extend_menu(model.Menu(items=tuple(res.menu)), self.cone, self.space)
        require(len(em.vertices) == len(res.menu), "a perturbed item was absorbed")
        require(exhaustive.is_exhaustive(em, self.space).exhaustive,
                "perturbed menu not exhaustive")
        require(extremality.def_polytope_cross_check(em, self.space),
                "deformation-polytope oracle rejects the perturbed menu")
        return {"prism": [[str(c) for c in p] for p in original], "extreme": True,
                "exhaustive": True}


class CliCold(Workload):
    name = "cli-cold"
    why = ("one `python -m extremenu.cli analyze FILE` child at a time on the golden corpus; "
           "the cold per-verdict latency a user sees, start-up and import included")
    warmup_items = 2
    digest_items = 0  # set to the corpus size in setup
    rss_of_children = True

    def setup(self):
        if str(ROOT / "tests") not in sys.path:
            sys.path.insert(0, str(ROOT / "tests"))
        import corpus

        self.cases = corpus.CORPUS
        self.digest_items = len(self.cases)
        self.paths = {}
        for case in self.cases:
            path = self.workdir / f"{case.name}.json"
            path.write_text(json.dumps(cli.scenario_to_dict(case.scenario)))
            self.paths[case.name] = str(path)
        self.env = child_env()
        for case in islice(self._order("warmup"), self.warmup_items):
            self.run(case, None)

    def calibrate(self):
        """Items are child processes: calibrate with a bare interpreter start."""
        return [speed.interpreter_start(child_env(), ROOT)]

    def _order(self, stream):
        """The corpus, reshuffled each round; every item is a fresh process."""
        for rnd in count():
            cases = list(self.cases)
            random.Random(f"{self.name}/{stream}/{rnd}").shuffle(cases)
            yield from cases

    def inputs(self, seed):
        return self._order(f"timed/{seed}")

    def run(self, case, tracer):
        path = self.paths[case.name]
        if tracer is None:
            cmd = [sys.executable, "-m", "extremenu.cli", "analyze", path]
        else:
            stats = str(self.workdir / "trace.json")
            cmd = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), stats, "analyze", path]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                              timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if tracer is not None:
            tracer.merge(json.loads(Path(stats).read_text()))
        return proc.stdout

    def check(self, case, stdout):
        report = json.loads(stdout)
        facts = analyze_facts(report)
        require(facts["extreme"] == case.extreme, "golden extremality verdict differs")
        require(facts["exhaustive"] == case.exhaustive, "golden exhaustiveness verdict differs")
        check_analyze_certificate(report, model.extended_menu(case.scenario), case.scenario.space)
        return {"case": case.name, **facts}


WORKLOADS = {w.name: w for w in (VerdictMixed, ExperimentCube4, PerturbPrism3, CliCold)}
