"""Seeded inputs and known answers for the three benchmark workloads.

A workload is a fixed *round* of chains that the runner times in several
passes.  A chain is the CLI pipeline for one input (one graph, one slab, one
proof copy); each of its ops is one ``branchproofs.cli.main([...])`` call with
the exit code, the ``RESULT`` verdict and any bound the answer must meet.
Chain ``i`` of pass ``p`` depends only on the seed, ``i`` and ``p``.  Every
pass gives chain ``i`` a different transformed copy of the same input, one
that costs the program the same work, so passes can be compared op by op
while no op re-submits an earlier op's input.  A chain that has no fresh copy
left, or that costs too much to repeat, takes part in fewer passes.

Known answers come from theory and construction, never from the program under
test: odd-charge Tseitin systems are integer-infeasible, a thin slab
``a x = k + 1/2`` with integral ``a`` holds no integer point, and the certified
proofs that ``proof-check`` copies are re-checked by this module's own Farkas
arithmetic before any op runs.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent

# Bundled instances, smallest first.  instances/ may grow (a 4x4 grid is
# planned), so the set is named rather than globbed.
BUNDLED_GRAPHS = ("single_edge", "triangle", "k4", "cycle5", "grid3x3")


@dataclass
class Op:
    kind: str  # CLI subcommand, e.g. "enum-to-cp"
    label: str  # input, e.g. "grid3x3"
    argv: list[str]
    exit_code: int
    verdict: str  # first word after "RESULT"
    check: Optional[Callable[[str], Optional[str]]] = None  # stdout -> problem
    outputs: tuple = ()  # (path, "proof" | "cuts") written by the op


@dataclass
class Chain:
    index: int  # position in the round
    files: dict  # path -> text, the chain's input files
    ops: list

    def write(self) -> None:
        for path, text in self.files.items():
            Path(path).write_text(text)


def _ints(text: str) -> list[int]:
    return [int(t) for t in re.findall(r"-?\d+", text)]


def _system_text(n: int, rows) -> str:
    lines = [f"{n} {len(rows)}"]
    for a, b in rows:
        lines.append(" ".join(str(v) for v in a) + f" {_rat(b)}")
    return "\n".join(lines) + "\n"


def _rat(value) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _max_coeff_at_most(path: Path, bound: int) -> Callable[[str], Optional[str]]:
    """Check on a written branching proof: every integer is at most ``bound``."""

    def check(_stdout: str) -> Optional[str]:
        worst = max((abs(v) for v in _ints(path.read_text())), default=0)
        if worst > bound:
            return f"max_coeff {worst} exceeds (10nR)^((n+2)^2) = {bound}"
        return None

    return check


class Workload:
    """The round of chains for one seed."""

    name = ""
    round_size = 0  # chains in the first pass

    def __init__(self, seed: int, traced: bool):
        self.seed = seed
        self.traced = traced  # building the traced run's pass

    def setup(self, pause: Callable[[], None]) -> None:
        """Heavy input generation that must precede the first op; calls
        ``pause`` between steps, where the runner may sample the speed."""

    def setup_artifacts(self) -> list[tuple[str, str]]:
        """(text, "proof") of set-up outputs whose size counts in ``artifact_bits``."""
        return []

    def variant(self, key: str, uses: int, count: int) -> int:
        """Variant number of the ``uses``-th copy of pool input ``key``.

        The seed picks where the walk over the ``count`` variants starts, so
        the first ``count`` copies of one input are all distinct.
        """
        return (random.Random(f"{self.seed}-{key}").randrange(count) + uses) % count

    def in_pass(self, index: int, number: int) -> bool:
        """Whether chain ``index`` takes part in pass ``number``."""
        return True

    def chain(self, index: int, number: int, directory: Path) -> Chain:
        """Chain ``index`` of pass ``number``, its files to go under ``directory``."""
        raise NotImplementedError

    def pass_chains(self, number: int, directory: Path) -> list[Chain]:
        return [self.chain(i, number, directory) for i in range(self.round_size)
                if self.in_pass(i, number)]


# ---------------------------------------------------------------------------
# tseitin-cp
# ---------------------------------------------------------------------------


def random_tseitin_graph(rng: random.Random, vertices: int, edges: int) -> str:
    """Connected graph, max degree 4, one odd vertex, in .graph text."""
    while True:
        degree = [0] * vertices
        chosen: set[tuple[int, int]] = set()
        order = list(range(vertices))
        rng.shuffle(order)
        for i in range(1, vertices):  # random spanning tree
            u = rng.choice([w for w in order[:i] if degree[w] < 4])
            v = order[i]
            chosen.add((min(u, v), max(u, v)))
            degree[u] += 1
            degree[v] += 1
        candidates = [
            (u, v) for u in range(vertices) for v in range(u + 1, vertices)
            if (u, v) not in chosen
        ]
        rng.shuffle(candidates)
        for u, v in candidates:
            if len(chosen) == edges:
                break
            if degree[u] < 4 and degree[v] < 4:
                chosen.add((u, v))
                degree[u] += 1
                degree[v] += 1
        if len(chosen) == edges:
            break
    edge_list = sorted(chosen)
    rng.shuffle(edge_list)
    parities = [0] * vertices
    parities[rng.randrange(vertices)] = 1
    lines = [f"{vertices} {edges}"]
    lines += [f"{u} {v}" for u, v in edge_list]
    lines.append(" ".join(map(str, parities)))
    return "\n".join(lines) + "\n"


POOL_GRAPHS = 6  # random graphs per round; vertex counts cycle 6, 7, 8


def swap_endpoints(graph_text: str, mask: int) -> str:
    """The same graph with edge i written "v u" where bit i of mask is set."""
    lines = graph_text.splitlines()
    edges = int(lines[0].split()[1])
    for i in range(edges):
        if mask >> i & 1:
            u, v = lines[1 + i].split()
            lines[1 + i] = f"{v} {u}"
    return "\n".join(lines) + "\n"


class TseitinCp(Workload):
    """gen-tseitin -> verify enumerative -> enum-to-cp -> verify cp per graph.

    The five bundled graphs come first, then POOL_GRAPHS random graphs whose
    vertex count cycles 6, 7, 8 (with V + 1 edges), each drawn from a fixed
    generator seed.  The run's seed and the pass swap edge endpoints, which
    changes every input file but none of the work: the solver's cost swings
    by a factor of several between random graphs of one size, and with a
    handful of graphs per run a per-seed draw would measure the draw rather
    than the program.  A graph with E edges has 2^E copies, so single_edge
    takes part in two passes.  grid3x3 runs in the traced run only: its
    chain costs more than a whole pass of the others, so the timed run
    could sample it just once, and that one sample would dominate the
    workload's timings.
    """

    name = "tseitin-cp"
    round_size = len(BUNDLED_GRAPHS) + POOL_GRAPHS
    TRACED_ONLY = ("grid3x3",)

    def __init__(self, seed: int, traced: bool):
        super().__init__(seed, traced)
        self.graphs = []  # (label, pool key, .graph text)
        for label in BUNDLED_GRAPHS:
            self.graphs.append((label, label, (ROOT / "instances" / f"{label}.graph").read_text()))
        for j in range(POOL_GRAPHS):
            vertices = (6, 7, 8)[j % 3]
            key = f"tseitin-{vertices}-{j // 3}"
            text = random_tseitin_graph(random.Random(key), vertices, vertices + 1)
            self.graphs.append((f"random-v{vertices}", key, text))

    def in_pass(self, index: int, number: int) -> bool:
        label, _, text = self.graphs[index]
        if label in self.TRACED_ONLY:
            return self.traced and number == 0
        return number < 1 << int(text.split()[1])

    def chain(self, index: int, number: int, directory: Path) -> Chain:
        label, key, text = self.graphs[index]
        edges = int(text.split()[1])
        text = swap_endpoints(text, self.variant(key, number, 1 << edges))
        base = directory / f"g{index}"
        graph, system, proof, cuts = (
            f"{base}.graph", f"{base}.ineq", f"{base}.proof", f"{base}.cuts"
        )

        def cut_bound(_stdout: str) -> Optional[str]:
            proof_text = Path(proof).read_text()
            nodes = proof_text.count("(enode") + proof_text.count("(eleaf")
            length = sum(1 for line in Path(cuts).read_text().splitlines() if line.strip())
            if length > 2 * nodes - 1:
                return f"cp-length {length} exceeds 2*{nodes}-1"
            return None

        return Chain(index, {graph: text}, [
            Op("gen-tseitin", label,
               ["gen-tseitin", graph, "--system", system, "--proof", proof],
               0, "ok", outputs=((proof, "proof"),)),
            Op("verify-enumerative", label,
               ["verify", "enumerative", system, proof], 0, "valid"),
            Op("enum-to-cp", label,
               ["enum-to-cp", system, proof, "--out", cuts], 0, "valid",
               check=cut_bound, outputs=((cuts, "cuts"),)),
            Op("verify-cp", label, ["verify", "cp", system, cuts], 0, "valid"),
        ])


# ---------------------------------------------------------------------------
# recompile-slabs
# ---------------------------------------------------------------------------

THIN_SEGMENT_M = (10**3, 10**6, 10**9)
SLAB_DIMENSIONS = (2, 3, 4, 5)
SLABS_PER_DIMENSION = 16  # in a round
PROOF_CHECK_SLAB = 129  # base slab number of proof-check's slab bases, outside the round
HALF_SIDE = {2: Fraction(1, 2), 3: Fraction(1, 2), 4: Fraction(1, 2), 5: Fraction(1, 5)}


def slab_base(n: int, b: int) -> tuple[list[int], int]:
    """Normal ``a`` and offset ``k`` of base slab ``b`` in dimension ``n``.

    Entries of ``a`` are log-uniform in [1e9, 1e15] with random signs; ``k``
    keeps the hyperplane ``a x = k + 1/2`` inside the middle half of the box.
    The base slabs do not depend on the run's seed.
    """
    rng = random.Random(f"slab-{n}-{b}")
    a = [rng.choice((1, -1)) * int(10 ** rng.uniform(9, 15)) for _ in range(n)]
    reach = math.floor(sum(abs(v) for v in a) * HALF_SIDE[n] / 2)
    return a, rng.randint(-reach, reach)


def permutation(size: int, index: int) -> list[int]:
    """Permutation number ``index`` (mod size!) of range(size)."""
    left = list(range(size))
    perm = []
    for radix in range(size, 0, -1):
        index, digit = divmod(index, radix)
        perm.append(left.pop(digit))
    return perm


def symmetry(n: int, index: int) -> tuple[list[int], list[int]]:
    """Coordinate permutation and signs number ``index`` of the n!*2^n."""
    return permutation(n, index >> n), [-1 if index >> i & 1 else 1 for i in range(n)]


def slab(a: list[int], k: int, n: int):
    """Thin slab {a x = k + 1/2} in the box [-h, h]^n and its one-step proof.

    h is 1/2 for n <= 4 and 1/5 for n = 5, so the l1 radius R is at most
    ceil(n h) <= 2.  Returns (system rows, proof text, R upper bound).
    """
    half = HALF_SIDE[n]
    c = k + Fraction(1, 2)
    rows = [(a, c), ([-v for v in a], -c)]
    for i in range(n):
        unit = [0] * n
        unit[i] = 1
        rows.append((unit, half))
        rows.append(([-v for v in unit], half))
    proof = f"(node ({' '.join(map(str, a))} {k})\n  (leaf)\n  (leaf))\n"
    return rows, proof, math.ceil(n * half)


class RecompileSlabs(Workload):
    """recompile -> certify -> verify certified on thin slabs.

    Three thin-segment chains (M = 1e3, 1e6, 1e9, each starting with the
    ``thin-segment`` generator) come first; slab dimensions then cycle 2..5,
    SLABS_PER_DIMENSION base slabs each.  Every copy of a base slab has its
    coordinates permuted and sign-flipped by the seed and the pass.  The box
    is symmetric under these maps and the Diophantine scan treats
    coordinates alike, so the scan lengths, which vary over orders of
    magnitude from slab to slab, are the same for every seed and pass while
    every copy's input differs.  A slab in dimension n has n! 2^n copies; a
    thin segment's input is its M alone, so it takes part in the first pass
    only.
    """

    name = "recompile-slabs"
    round_size = len(THIN_SEGMENT_M) + len(SLAB_DIMENSIONS) * SLABS_PER_DIMENSION

    def in_pass(self, index: int, number: int) -> bool:
        if index < len(THIN_SEGMENT_M):
            return number == 0
        n = SLAB_DIMENSIONS[(index - len(THIN_SEGMENT_M)) % len(SLAB_DIMENSIONS)]
        return number < math.factorial(n) << n

    def chain(self, index: int, number: int, directory: Path) -> Chain:
        base = directory / f"s{index}"
        system, proof = f"{base}.ineq", f"{base}.proof"
        recompiled, certified = f"{base}.rec.proof", f"{base}.cert.proof"
        ops, files = [], {}
        if index < len(THIN_SEGMENT_M):
            M = THIN_SEGMENT_M[index]
            label, n, R = f"thin-{M:.0e}", 2, 3  # R = ceil(2 + 3/(2M))
            ops.append(Op("thin-segment", label,
                          ["thin-segment", str(M), "--system", system, "--proof", proof],
                          0, "ok"))
        else:
            slab_number = index - len(THIN_SEGMENT_M)
            n = SLAB_DIMENSIONS[slab_number % len(SLAB_DIMENSIONS)]
            b = slab_number // len(SLAB_DIMENSIONS)
            a, k = slab_base(n, b)
            order = math.factorial(n) << n
            perm, signs = symmetry(n, self.variant(f"slab-{n}-{b}", number, order))
            label = f"slab-n{n}"
            rows, proof_text, R = slab([s * a[j] for j, s in zip(perm, signs)], k, n)
            files = {system: _system_text(n, rows), proof: proof_text}
        bound = (10 * n * R) ** ((n + 2) ** 2)
        ops += [
            Op("recompile", label, ["recompile", system, proof, "--out", recompiled],
               0, "valid", check=_max_coeff_at_most(Path(recompiled), bound),
               outputs=((recompiled, "proof"),)),
            Op("certify", label, ["certify", system, recompiled, "--out", certified],
               0, "valid", outputs=((certified, "proof"),)),
            Op("verify-certified", label, ["verify", "certified", system, certified],
               0, "valid"),
        ]
        return Chain(index, files, ops)


# ---------------------------------------------------------------------------
# proof-check
# ---------------------------------------------------------------------------


def _tokens(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read_tree(tokens: list[str]):
    """Nested lists from an s-expression token list (iterative)."""
    stack: list[list] = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    (tree,) = stack[0]
    return tree


def _leaves(tree):
    """(leaf, path rows) pairs; a path row is (normal, rhs)."""
    todo = [(tree, ())]
    while todo:
        node, path = todo.pop()
        if node[0] == "leaf":
            yield node, path
            continue
        numbers = [int(t) for t in node[1]]
        a, b = numbers[:-1], numbers[-1]
        todo.append((node[3], path + (([-v for v in a], -b - 1),)))
        todo.append((node[2], path + ((a, b),)))


def farkas_ok(system_rows, tree) -> bool:
    """Every leaf certificate is a valid Farkas certificate: lam >= 0, lam A = 0, lam b < 0."""
    n = len(system_rows[0][0])
    for leaf, path in _leaves(tree):
        if len(leaf) != 2:
            return False
        lam = [Fraction(t) for t in leaf[1][1:]]
        rows = list(system_rows) + list(path)
        if len(lam) != len(rows) or any(v < 0 for v in lam):
            return False
        combo = [Fraction(0)] * n
        total = Fraction(0)
        for coeff, (a, b) in zip(lam, rows):
            if coeff:
                for j, e in enumerate(a):
                    combo[j] += coeff * e
                total += coeff * Fraction(b)
        if any(combo) or total >= 0:
            return False
    return True


def _parse_system(text: str):
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n = int(lines[0][0])
    return n, [([Fraction(t) for t in ln[:n]], Fraction(ln[n])) for ln in lines[1:]]


def _emit_tree(tree, col_perm, row_perm, m, scale: int, out: list[str]) -> None:
    """Branching-proof text of ``tree`` with columns and system rows permuted
    and every certificate multiplied by ``scale``."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        if node[0] == "leaf":
            if len(node) == 1:
                out.append("(leaf)")
            else:
                lam = node[1][1:]
                if scale != 1:
                    lam = [_rat(scale * Fraction(v)) for v in lam]
                moved = [lam[r] for r in row_perm] + lam[m:]
                out.append("(leaf (cert " + " ".join(moved) + "))")
            continue
        normal = node[1]
        header = " ".join(normal[j] for j in col_perm) + " " + normal[-1]
        out.append(f"(node ({header})\n")
        todo += [")\n", node[3], "\n", node[2]]


@dataclass
class _Base:
    label: str
    n: int
    rows: list  # (normal, rhs) as Fractions
    tree: list  # parsed certified proof


class ProofCheck(Workload):
    """verify certified + stats on permuted copies of certified proofs.

    Set-up builds the bases with the library (Tseitin refutations through
    enumerative_to_branching + certify, and recompiled + certified slabs) and
    re-checks each with this module's Farkas arithmetic.  The bases do not
    depend on the seed (their random graphs and slabs come from fixed
    generator seeds), so the cost of the op mix is the same for every seed.
    Chain i checks a copy of base i mod len(bases) with its columns and
    system rows permuted by the seed and the pass; a base's copies walk
    through its n! m! permutations, then repeat them with every certificate
    scaled by 2, 3, ... (still valid), so no copy repeats.  Every fourth
    chain has one nonzero multiplier doubled, which breaks ``lam A = 0``
    because no row is zero, so its answer is ``RESULT invalid`` with exit 1.
    """

    name = "proof-check"
    TAMPER_EVERY = 4
    COPIES_PER_PASS = 16  # of each base

    def setup(self, pause: Callable[[], None]) -> None:
        from branchproofs import (
            TseitinInstance, certify, enumerative_to_branching,
            format_branching, parse_branching, recompile, thin_segment,
            tseitin_polytope, tseitin_sp_refutation,
        )
        from branchproofs.simplex import InequalitySystem

        built = []
        graphs = [(g, (ROOT / "instances" / f"{g}.graph").read_text())
                  for g in BUNDLED_GRAPHS]
        graphs += [(f"random-v{v}", random_tseitin_graph(random.Random(v), v, v + 2))
                   for v in (6, 7)]
        for label, text in graphs:
            inst = TseitinInstance.from_text(text)
            system = tseitin_polytope(inst)
            proof = enumerative_to_branching(tseitin_sp_refutation(inst))
            built.append((label, system, certify(system, proof)))
            pause()
        for n in (2, 3, 4):
            rows, proof_text, _ = slab(*slab_base(n, PROOF_CHECK_SLAB), n)
            system = InequalitySystem.from_text(_system_text(n, rows))
            rebuilt = recompile(system, parse_branching(proof_text))
            built.append((f"slab-n{n}", system, certify(system, rebuilt)))
            pause()
        system, proof = thin_segment(10**6)
        built.append(("thin-1e+06", system, certify(system, recompile(system, proof))))

        self.bases = []
        self.base_proofs = []
        for label, system, certified in built:
            system_text = system.to_text()
            proof_text = format_branching(certified) + "\n"
            self.base_proofs.append((proof_text, "proof"))
            n, rows = _parse_system(system_text)
            tree = _read_tree(_tokens(proof_text))
            if not farkas_ok(rows, tree):
                raise RuntimeError(f"set-up built an invalid certified proof for {label}")
            self.bases.append(_Base(label, n, rows, tree))
        self.round_size = self.COPIES_PER_PASS * len(self.bases)

    def setup_artifacts(self) -> list[tuple[str, str]]:
        return self.base_proofs

    def chain(self, index: int, number: int, directory: Path) -> Chain:
        copy, b = divmod(index, len(self.bases))
        uses = copy + number * self.COPIES_PER_PASS
        base = self.bases[b]
        m = len(base.rows)
        count = math.factorial(base.n) * math.factorial(m)
        cols, rows_number = divmod(self.variant(base.label, uses, count), math.factorial(m))
        col_perm, row_perm = permutation(base.n, cols), permutation(m, rows_number)
        tree = base.tree
        tampered = index % self.TAMPER_EVERY == self.TAMPER_EVERY - 1
        if tampered:
            tree = _double_one_multiplier(tree, random.Random(f"{self.seed}-tamper-{index}"))
        rows = [base.rows[r] for r in row_perm]
        rows = [([a[j] for j in col_perm], b) for a, b in rows]
        out: list[str] = []
        _emit_tree(tree, col_perm, row_perm, m, 1 + uses // count, out)
        stem = directory / f"p{index}"
        system, proof = f"{stem}.ineq", f"{stem}.proof"
        files = {system: _system_text(base.n, rows), proof: "".join(out) + "\n"}
        label = base.label + ("-tampered" if tampered else "")
        return Chain(index, files, [
            Op("verify-certified", label, ["verify", "certified", system, proof],
               1 if tampered else 0, "invalid" if tampered else "valid"),
            Op("stats", label, ["stats", proof], 0, "ok"),
        ])


def _double_one_multiplier(tree, rng: random.Random):
    """A copy of ``tree`` with one nonzero leaf multiplier doubled."""
    leaves = [leaf for leaf, _ in _leaves(tree) if len(leaf) == 2]
    target = rng.choice(leaves)
    lam = target[1]
    position = rng.choice([i for i in range(1, len(lam)) if Fraction(lam[i]) != 0])

    def copy(node):
        if node is target:
            new = list(lam)
            new[position] = _rat(2 * Fraction(lam[position]))
            return ["leaf", new]
        if node[0] == "leaf":
            return node
        return [node[0], node[1], copy(node[2]), copy(node[3])]

    return copy(tree)


WORKLOADS = {w.name: w for w in (TseitinCp, RecompileSlabs, ProofCheck)}
