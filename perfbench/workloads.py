"""Seeded input generators and stage settings for the two workloads.

The generators live here, apart from the program and its test corpus, so
that edits to either cannot change what the benchmark feeds the pipeline.
Molecules are assembled from SMILES fragments; a small parser below turns
each candidate into a labelled graph so that the generator can keep only
candidates that are pairwise distinct, without calling the program.

Distinctness uses 1-WL colour refinement over (element, charge, aromatic
flag, degree) seeds and bond orders. Different 1-WL colourings prove two
graphs non-isomorphic, and these seeds are coarser than the ones
``geoscatt.ingest.canonical_key`` uses, so two kept candidates can never
share a program key either. The fixed WL-hard pairs below are the one
deliberate exception: each pair is non-isomorphic by construction (the
ring sizes differ) yet 1-WL cannot separate it.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field

# --- a parser for the SMILES this module writes --------------------------------

_ORGANIC = {"B": 5, "C": 6, "N": 7, "O": 8, "F": 9, "P": 15, "S": 16,
            "Cl": 17, "Br": 35, "I": 53}
_AROMATIC = {"b": 5, "c": 6, "n": 7, "o": 8, "p": 15, "s": 16}
_BOND = {"-": 1, "=": 2, "#": 3, ":": 4}


def parse(smiles: str) -> tuple[list[tuple[int, int, bool]], list[tuple[int, int, int]]]:
    """Atoms as (element, charge, aromatic) and bonds as (i, j, order code).

    Order codes: 1 single, 2 double, 3 triple, 4 aromatic. Covers bare and
    bracket atoms, branches, ``=``/``#`` bonds and ring closures, which is
    everything the generators emit.
    """
    atoms: list[tuple[int, int, bool]] = []
    bonds: list[tuple[int, int, int]] = []
    stack: list[int] = []
    rings: dict[str, tuple[int, int | None]] = {}
    prev, pending, i = None, None, 0

    def add(atom):
        nonlocal prev, pending
        atoms.append(atom)
        idx = len(atoms) - 1
        if prev is not None:
            bonds.append((prev, idx, pending or _implicit(prev, idx)))
        prev, pending = idx, None

    def _implicit(a, b):
        return 4 if atoms[a][2] and atoms[b][2] else 1

    while i < len(smiles):
        ch = smiles[i]
        if ch == "(":
            stack.append(prev)
            i += 1
        elif ch == ")":
            prev = stack.pop()
            i += 1
        elif ch in _BOND:
            pending = _BOND[ch]
            i += 1
        elif ch == "[":
            end = smiles.index("]", i)
            body = smiles[i + 1:end]
            charge = body.count("+") - body.count("-")
            sym = body.rstrip("+-").replace("H", "") or "H"
            if sym in _AROMATIC:
                add((_AROMATIC[sym], charge, True))
            else:
                add((_ORGANIC[sym], charge, False))
            i = end + 1
        elif ch.isdigit() or ch == "%":
            label = smiles[i:i + 3] if ch == "%" else ch
            i += len(label)
            if label in rings:
                other, order = rings.pop(label)
                bonds.append((other, prev, pending or order or _implicit(other, prev)))
                pending = None
            else:
                rings[label] = (prev, pending)
                pending = None
        elif smiles[i:i + 2] in ("Cl", "Br"):
            add((_ORGANIC[smiles[i:i + 2]], 0, False))
            i += 2
        elif ch in _ORGANIC:
            add((_ORGANIC[ch], 0, False))
            i += 1
        elif ch in _AROMATIC:
            add((_AROMATIC[ch], 0, True))
            i += 1
        else:
            raise ValueError(f"unexpected {ch!r} in {smiles}")
    if rings or stack:
        raise ValueError(f"unclosed ring or branch in {smiles}")
    return atoms, bonds


def wl_hash(smiles: str) -> str:
    """1-WL colour-refinement hash of the molecule's labelled graph."""
    atoms, bonds = parse(smiles)
    n = len(atoms)
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, order in bonds:
        nbrs[a].append((order, b))
        nbrs[b].append((order, a))
    colour = [f"{e}|{c}|{int(ar)}|{len(nbrs[k])}" for k, (e, c, ar) in enumerate(atoms)]
    for _ in range(n):
        new = [_h(colour[k] + "&" + ",".join(sorted(f"{o}:{colour[m]}" for o, m in nbrs[k])))
               for k in range(n)]
        stable = len(set(new)) == len(set(colour))
        colour = new
        if stable:
            break
    return _h(f"{n};{len(bonds)};" + "|".join(sorted(colour)))


def heavy_atoms(smiles: str) -> int:
    return len(parse(smiles)[0])


def _h(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


# --- fragments ---------------------------------------------------------------------

# Structural alerts: a molecule carrying one is labelled positive. Only
# the charged alerts (nitro, azide) are used: their charges reach the
# node features, so the label is learnable from a few dozen molecules and
# the held-out AUCs stay steady from seed to seed.
ALERTS = ("[N+](=O)[O-]", "N=[N+]=[N-]")
# the same alerts written to start a chain
ALERT_PREFIXES = ("[O-][N+](=O)", "[N-]=[N+]=N")
BENIGN = ("C", "CC", "CCC", "O", "OC", "Cl", "F", "Br", "C(=O)O", "C(C)C",
          "OCC", "S", "C#N", "C(=O)C", "CO", "CCl", "C(F)(F)F", "SC", "I",
          "C=C", "OC(=O)C", "C(=O)N")

# tiny molecules: a head, an optional middle and a tail, joined by single
# bonds; each head ends and each middle starts and ends on an atom with a
# free valence
TINY_HEADS = ("C", "CC", "O", "N", "S", "F", "Cl", "Br", "I", "OC", "NC", "C=C", "N#C",
              "O=C")
TINY_MIDS = ("", "C", "CC", "O", "N", "S", "C(C)", "C(=O)", "C(F)", "C(O)", "C=C", "N(C)",
             "C(Cl)")
TINY_TAILS = ("C", "CC", "O", "N", "F", "Cl", "Br", "C#N", "C=O", "C(=O)O", "OC", "S")

# ring units for the large molecules; {n} is where the next unit hangs
RING_UNITS = (
    "c%(r)sccc({n})cc%(r)s",                       # benzene
    "c%(r)sccc%(s)scc({n})ccc%(s)sc%(r)s",         # naphthalene
    "c%(r)sccc%(s)scc%(t)scc({n})ccc%(t)scc%(s)sc%(r)s",  # anthracene
    "c%(r)sccc%(s)sncc({n})cc%(s)sc%(r)s",         # quinoline
    "c%(r)sccc%(s)sc(c%(r)s)cc({n})[nH]%(s)s",     # indole
    "c%(r)scc({n})ncc%(r)s",                       # pyridine
    "C%(r)sCCC({n})CC%(r)s",                       # cyclohexane
    "C%(r)sCC%(s)sCCC({n})CC%(s)sCC%(r)s",         # decalin-like
    "C%(r)sCCN({n})CC%(r)s",                       # piperidine
    "c%(r)scc({n})sc%(r)s",                        # thiophene
)
LINKERS = ("", "C", "CC", "O", "C(=O)N", "CCCC", "C=C", "S", "N", "C(=O)O",
           "CCCCCC", "OCCO")
CHAINS = ("CCCCC", "CCCCCCC", "CCCCCCCCC", "CCCCCCCCCCC", "CC(C)CCCC",
          "CCOCCOCC", "CCCCCCCO")

# Non-isomorphic pairs that 1-WL cannot separate: two equal chains of m
# carbons join two bonded junction atoms, either as a fused bicycle (two
# rings of m + 2) or as two rings of m + 1 linked by the junction bond.
# Both junctions carry the same substituent R. The first pair is decalin
# and bicyclopentyl.
WL_PAIR_SHAPES = ((4, ""), (5, ""), (6, "(C)"), (7, "(OC)"))


def wl_pair(m: int, r: str) -> tuple[str, str]:
    chain = "C" * (m - 1)
    fused = f"C12{r}{chain}CC1{r}{chain}C2"
    linked = f"C1{r}({chain}C1)C2{r}{chain}C2"
    return fused, linked


WL_PAIRS = tuple(wl_pair(m, r) for m, r in WL_PAIR_SHAPES)


@dataclass
class Workload:
    """One benchmark workload: inputs, config and per-stage flags."""

    name: str
    rows: list[tuple[str, int]]
    config: dict[str, dict[str, object]]
    k_select: int
    top_k: int = 0
    # input SMILES that must share a row with an earlier input
    expected_merged: set[str] = field(default_factory=set)

    @property
    def gin_epochs(self) -> int:
        return int(self.config["gin"]["epochs"])

    @property
    def sage_epochs(self) -> int:
        return int(self.config["sage"]["epochs"])

    @property
    def scatter(self) -> tuple[int, int, int]:
        s = self.config["scatter2d"]
        return int(s["j"]), int(s["l"]), int(s["size"])

    def ini(self) -> str:
        lines = []
        for section, values in self.config.items():
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v}" for k, v in values.items())
        return "\n".join(lines) + "\n"


def _tiny_candidates(rng: random.Random) -> list[tuple[str, int]]:
    """Head-middle-tail molecules; an alert as head or tail labels them positive."""
    out = []
    for mid in TINY_MIDS:
        for head in TINY_HEADS + ALERT_PREFIXES:
            for tail in TINY_TAILS + ALERTS:
                label = int(head in ALERT_PREFIXES) + int(tail in ALERTS)
                if label < 2:
                    out.append((head + mid + tail, label))
    rng.shuffle(out)
    return out


def _large_candidates(rng: random.Random, count: int) -> list[tuple[str, int]]:
    """Ring units joined by linkers, with chains and alert groups."""
    out = []
    for _ in range(count):
        label = rng.randrange(2)
        digit = iter(range(1, 90))
        smiles = ""
        for u in range(rng.randint(2, 4)):
            unit = rng.choice(RING_UNITS) % {k: _ring_label(next(digit)) for k in "rst"}
            if u == 0:
                tail = rng.choice(CHAINS) if rng.random() < 0.6 else rng.choice(BENIGN)
            else:
                tail = rng.choice(LINKERS) + smiles
            smiles = unit.replace("{n}", tail)
        if label:
            smiles = rng.choice(ALERT_PREFIXES) + smiles
        out.append((smiles, label))
    return out


def _ring_label(k: int) -> str:
    return str(k) if k < 10 else f"%{k:02d}"


def _fill(candidates, quota: Counter, seen: set[str]) -> list[tuple[str, int]]:
    """Distinct candidates that fill the quota of (label, heavy atoms) slots.

    Every seed fills the same quota, so the amount of work per molecule
    does not change with the seed; only which molecules fill it does.
    """
    left = Counter(quota)
    picked = []
    for smiles, label in candidates:
        slot = (label, heavy_atoms(smiles))
        if left[slot] <= 0:
            continue
        key = wl_hash(smiles)
        if key in seen:
            continue
        seen.add(key)
        picked.append((smiles, label))
        left[slot] -= 1
        if len(picked) == sum(quota.values()):
            return picked
    raise RuntimeError(f"generator filled {len(picked)} of {sum(quota.values())} slots")


def _quota(candidates, n: int) -> Counter:
    """Label-balanced (label, heavy atoms) slots of the first n candidates."""
    quota: Counter = Counter()
    taken = {0: 0, 1: 0}
    seen: set[str] = set()
    for smiles, label in candidates:
        key = wl_hash(smiles)
        if taken[label] < n // 2 and key not in seen:
            seen.add(key)
            quota[(label, heavy_atoms(smiles))] += 1
            taken[label] += 1
    return quota


# Settings shared by every workload. The epoch counts are fixed (patience
# is never reached), and the larger validation and test shares keep the
# held-out AUCs steady from seed to seed at these molecule counts.
RUN = {"test_fraction": 0.4, "val_fraction": 0.3}
GIN = {"epochs": 2, "patience": 2}
SAGE = {"epochs": 150, "patience": 150, "lr": 0.003, "dropout": 0.0,
        "weight_decay": 0.001, "hidden": 32, "embed": 16}

# Per workload: the logistic head's L2 is strong enough that its descent
# takes the same number of steps on every seed (on large-sparse every fit
# reaches the iteration cap; on small-many each stops after about 1600),
# and small-many, whose dense epochs cost about ten times large-sparse's,
# runs fewer SAGE epochs to fit more passes in a run.
SMALL_MANY = {"run": dict(RUN, l2=1000.0), "scatter2d": {"j": 1, "l": 1, "size": 16},
              "gin": GIN, "sage": dict(SAGE, epochs=80, patience=80)}
LARGE_SPARSE = {"run": dict(RUN, l2=100.0), "scatter2d": {"j": 2, "l": 2, "size": 32},
                "gin": GIN, "sage": SAGE}


def build(name: str, seed: int) -> Workload:
    """The named workload's inputs and settings for one seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "small-many":
        quota = _quota(_tiny_candidates(random.Random(f"{name}:quota")), SMALL_MANY_N)
        rows = _fill(_tiny_candidates(rng), quota, set())
        return Workload(name=name, rows=rows, k_select=32, config=SMALL_MANY)
    if name == "large-sparse":
        seen = {wl_hash(s) for pair in WL_PAIRS for s in pair}
        quota = Counter((label, size) for label in (0, 1) for size in LARGE_SIZES[label])
        seeded = _fill(_large_candidates(rng, 20000), quota, seen)
        pairs = [(s, 0) for pair in WL_PAIRS for s in pair]
        return Workload(name=name, rows=pairs + seeded, k_select=64, top_k=5,
                        expected_merged={pair[1] for pair in WL_PAIRS},
                        config=LARGE_SPARSE)
    raise KeyError(name)


NAMES = ("small-many", "large-sparse")
SMALL_MANY_N = 256
# heavy-atom counts of the seeded large molecules, per label; the Jacobi
# cost grows as n^3, so most are near the low end
LARGE_SIZES = {0: (20, 20, 20, 21, 21, 22, 22, 23, 24, 26, 29, 45),
               1: (20, 20, 20, 21, 21, 22, 22, 23, 24, 26, 29, 38)}
