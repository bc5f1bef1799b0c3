"""Non-adaptive evaluation of Boolean read-once formulas.

A formula is a binary AND/OR tree whose leaves are distinct tests; test i
succeeds with probability p_i (a rational strictly between 0 and 1) and
costs a positive integer c_i.  The weight of a test set S is the
probability that the formula's value is already determined by the outcomes
in S; the cost is the total test cost.  An ordering is evaluated by running
tests until the value is determined.  A gate is determined to an outcome
when both of its children are, or when either one is: an AND needs both
for 1 and either for 0, an OR the other way round.  ``GATES`` states these
rules once, on probabilities scaled by the children's denominators, and
the weight, its lattice column and the density step all read them there.

The density step is a dynamic program over (gate, spent budget, target
value): for every gate G, budget t and target l it records a subset of G's
untested leaves of cost exactly t maximising the probability that G
evaluates to l.  Splitting the supplement search by target value loses at
most a factor two in density, giving a 2-approximate density step and hence
an 8-approximate ordering overall.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .core import DensityResult, DensitySolver, MsopInstance, compare_density
from .errors import NoFeasibleSuperset, ValidationError
from .lattice import RunningOracle, free, modular, modular_column, supply


@dataclass(frozen=True, eq=False)
class Leaf:
    var: int


def _both(x: int, y: int, dx: int, dy: int) -> int:
    """Both children reach the outcome: probabilities ``x / dx`` and
    ``y / dy`` give ``x * y / (dx * dy)``, returned times ``dx * dy``."""
    return x * y


def _either(x: int, y: int, dx: int, dy: int) -> int:
    """Either child reaches the outcome, times ``dx * dy`` as ``_both``."""
    return x * dy + y * dx - x * y


# per gate kind, the rule of its outcomes 0 and 1 from its children's
GATES = {"and": (_either, _both), "or": (_both, _either)}


@dataclass(frozen=True, eq=False)
class Gate:
    op: str  # a key of GATES
    left: "Node"
    right: "Node"


Node = Leaf | Gate


@dataclass(frozen=True, eq=False)
class ReadOnceFormula:
    root: Node
    probs: dict[int, Fraction]
    costs: dict[int, int]

    def __post_init__(self):
        seen: list[int] = []
        for node in self.nodes:
            if isinstance(node, Leaf):
                seen.append(node.var)
            elif node.op not in GATES:
                raise ValidationError(f"unknown gate {node.op!r}")
        if len(set(seen)) != len(seen):
            raise ValidationError("each variable may appear in exactly one leaf")
        if set(seen) != set(self.probs) or set(seen) != set(self.costs):
            raise ValidationError("probabilities and costs must cover exactly the leaves")
        for i, p in self.probs.items():
            if not 0 < p < 1:
                raise ValidationError(f"test {i} needs 0 < p < 1, got {p}")
        for i, c in self.costs.items():
            if not isinstance(c, int) or c < 1:
                raise ValidationError(f"test {i} needs a positive integer cost, got {c}")

    @cached_property
    def variables(self) -> tuple[int, ...]:
        return tuple(sorted(self.probs))

    @cached_property
    def outcomes(self) -> dict[int, tuple[int, int]]:
        """Each variable's probabilities of 1 and 0, times its denominator."""
        return {v: (p.numerator, p.denominator - p.numerator) for v, p in self.probs.items()}

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        """All nodes, children before parents, left subtrees first."""
        out: list[Node] = []
        stack: list[tuple[Node, bool]] = [(self.root, False)]
        while stack:
            node, inputs_done = stack.pop()
            if isinstance(node, Gate) and not inputs_done:
                stack.append((node, True))
                stack.append((node.right, False))
                stack.append((node.left, False))
            else:
                out.append(node)
        return tuple(out)

    @cached_property
    def denominators(self) -> dict[Node, int]:
        """Per node, the product of its leaves' probability denominators:
        every probability the node can take is a multiple of its inverse."""
        out: dict[Node, int] = {}
        for node in self.nodes:
            if isinstance(node, Leaf):
                out[node] = self.probs[node.var].denominator
            else:
                out[node] = out[node.left] * out[node.right]
        return out

    @cached_property
    def leaves(self) -> dict[int, Leaf]:
        """Each variable's leaf, from left to right."""
        return {node.var: node for node in self.nodes if isinstance(node, Leaf)}

    @cached_property
    def parents(self) -> dict[Node, Gate]:
        """Each node's gate; the root has none."""
        out: dict[Node, Gate] = {}
        for node in self.nodes:
            if isinstance(node, Gate):
                out[node.left] = out[node.right] = node
        return out

    @cached_property
    def positions(self) -> dict[Node, int]:
        """Each node's index in ``nodes``."""
        return {node: i for i, node in enumerate(self.nodes)}

    def gates_above(self, variables) -> list[Gate]:
        """The gates on the root paths of ``variables``' leaves, children
        first; variables outside the formula have none."""
        parents, leaves = self.parents, self.leaves
        gates: set[Gate] = set()
        for var in variables:
            gate = parents.get(leaves.get(var))
            while gate is not None and gate not in gates:
                gates.add(gate)
                gate = parents.get(gate)
        return sorted(gates, key=self.positions.__getitem__)


def _scaled_gate(gate: Gate, ones, zeros, den) -> None:
    """A gate's probabilities of being determined 1 and 0, times its
    denominator, from its children's."""
    left, right = gate.left, gate.right
    dl, dr = den[left], den[right]
    to_zero, to_one = GATES[gate.op]
    p, q = to_one(ones[left], ones[right], dl, dr), to_zero(zeros[left], zeros[right], dl, dr)
    if p < 0 or q < 0 or p + q > den[gate]:
        raise ValidationError("gate probabilities left [0, 1]")
    ones[gate], zeros[gate] = p, q


class _FormulaState(RunningOracle):
    """Per-node values of a formula for the last tested set: a move
    recomputes the leaves of the tests that came, then the gates on their
    root paths; after a rebuild it computes every node once.
    Subclasses supply ``leaf(leaf, tested)``, ``gate(gate)`` and
    ``result()``, the value at the tested set."""

    def __init__(self, formula: ReadOnceFormula):
        super().__init__()
        self.formula = formula

    def reset(self) -> None:
        # the move that follows overwrites every node's value
        self.rebuilt = True

    def move(self, added):
        formula = self.formula
        if self.rebuilt:  # ``added`` is the whole tested set
            self.rebuilt = False
            for node in formula.nodes:
                if isinstance(node, Leaf):
                    self.leaf(node, node.var in added)
                else:
                    self.gate(node)
            return self.result()
        leaves = formula.leaves
        for var in added:
            if var in leaves:
                self.leaf(leaves[var], True)
        for gate in formula.gates_above(added):
            self.gate(gate)
        return self.result()


class Determination(_FormulaState):
    """Probability that the formula value is determined by testing a set,
    as a running oracle.  Per node, ``ones`` (``zeros``) holds the
    probability that the last set's outcomes determine its value 1 (0),
    times the node's denominator."""

    def reset(self) -> None:
        super().reset()
        self.ones: dict[Node, int] = {}
        self.zeros: dict[Node, int] = {}

    def leaf(self, leaf: Leaf, tested: bool) -> None:
        self.ones[leaf], self.zeros[leaf] = self.formula.outcomes[leaf.var] if tested else (0, 0)

    def gate(self, gate: Gate) -> None:
        _scaled_gate(gate, self.ones, self.zeros, self.formula.denominators)

    def result(self) -> Fraction:
        root = self.formula.root
        return Fraction(self.ones[root] + self.zeros[root], self.formula.denominators[root])


def _determination_column(formula: ReadOnceFormula) -> tuple[list[int], int]:
    """Determination probability of every subset, by bitmask over the
    sorted variables: ints over the lcm of their denominators, and that
    lcm.  Per node and outcome, a list holds the probability of reaching
    that outcome, times the node's denominator, for every subset of the
    node's leaves, by bitmask over those leaves from left to right: a
    gate's list is its rule over every pair of its children's entries, the
    left child's bits below the right's.  Exponential in n; meant for
    small oracles."""
    den = formula.denominators
    lists: dict[Node, tuple[list[int], list[int]]] = {}
    for node in formula.nodes:
        if isinstance(node, Leaf):
            one, zero = formula.outcomes[node.var]
            lists[node] = ([0, zero], [0, one])
        else:
            dl, dr = den[node.left], den[node.right]
            lists[node] = tuple(
                [rule(x, y, dl, dr) for y in right for x in left]
                for rule, left, right in zip(GATES[node.op], lists.pop(node.left),
                                             lists.pop(node.right)))
    zeros, ones = lists[formula.root]
    place = {v: i for i, v in enumerate(formula.leaves)}  # left to right
    # each sorted-variable mask's index in the left-to-right order
    index, _ = modular_column([1 << place[v] for v in formula.variables])
    column = [zeros[i] + ones[i] for i in index]
    # the root's denominator is a multiple of every entry's; divide out
    # what they share
    common = gcd(den[formula.root], *column)
    return [v // common for v in column], den[formula.root] // common


# entry: budget -> (probability times the gate's denominator, left child's budget)
ScaledTable = dict[int, tuple[int, int]]


class _Supplements(_FormulaState):
    """Supplement-search density steps over the formula's ``to_msop``
    instance, as a running oracle: the search's tables for the last tested
    set, whose value at a set is the step from it.

    ``scaled[node][l][t]`` describes the subset R of the node's untested
    leaves with total cost exactly t that maximises the probability the
    node is determined to l once R is tested on top of the set.  It holds
    that probability times ``formula.denominators[node]`` and the share of
    t spent under the left child, from which ``chosen`` rebuilds R.  Only
    the budgets that beat every smaller budget are kept (Nemhauser &
    Ullmann 1969).  A gate's value grows with each child's, so a split
    through a dominated child entry is matched at a smaller budget: pruned
    children give the pruned gate, with the full exact-budget tables'
    values and splits.

    The step takes a 2-approximate maximum-density supplement of the set,
    read off the root tables with its total cost, the supplement's budget,
    and the set's determination probability; some test must be left
    untested.  For each target the best density over budgets is taken
    against the budget-0 entry (the set alone); the larger of the two wins
    (target 1 on a tie), and within a target the smallest budget.  The
    chosen budget has positive gain (testing every untested leaf
    determines the root where the set alone may not), so no smaller budget
    reaches its value and it is kept.  The winner's density is at least
    half the best over all supersets.  The candidate's weight is read off
    the budget-0 entries, which hold the set's own probabilities, along
    the root paths of the supplement (``determined``); no oracle is asked.
    """

    def reset(self) -> None:
        super().reset()
        self.scaled: dict[Node, dict[int, ScaledTable]] = {}

    def leaf(self, leaf: Leaf, tested: bool) -> None:
        one, zero = self.formula.outcomes[leaf.var]
        if tested:
            self.scaled[leaf] = {1: {0: (one, 0)}, 0: {0: (zero, 0)}}
        else:
            c = self.formula.costs[leaf.var]
            self.scaled[leaf] = {1: {0: (0, 0), c: (one, 0)}, 0: {0: (0, 0), c: (zero, 0)}}

    def gate(self, gate: Gate) -> None:
        """A gate's tables from its children's: the budget is split between
        the two children every feasible way and the combined probability
        maximised; budget-split ties keep the smallest left share.  Only
        the budgets whose value beats every smaller budget's are kept."""
        scaled, den = self.scaled, self.formula.denominators
        dl, dr = den[gate.left], den[gate.right]
        table = {}
        for outcome in (0, 1):
            both = GATES[gate.op][outcome] is _both
            left = sorted(scaled[gate.left][outcome].items())
            right = [(tr, pr) for tr, (pr, _) in sorted(scaled[gate.right][outcome].items())]
            # by budget: best value (-1 for none; values are nonnegative)
            # and the left share that reaches it first
            value = [-1] * (left[-1][0] + right[-1][0] + 1)
            share = [0] * len(value)
            for tl, (pl, _) in left:
                # the rule as a function of pr alone: a + b * pr
                a, b = (0, pl) if both else (pl * dr, dl - pl)
                for tr, pr in right:
                    v = a + b * pr
                    if v > value[tl + tr]:
                        value[tl + tr] = v
                        share[tl + tr] = tl
            out: ScaledTable = {}
            top = -1
            for t, v in enumerate(value):
                if v > top:
                    out[t] = (v, share[t])
                    top = v
            table[outcome] = out
        scaled[gate] = table

    def chosen(self, node: Node, outcome: int, t: int) -> frozenset[int]:
        """The tests of ``scaled[node][outcome][t]``'s supplement."""
        out: list[int] = []
        stack = [(node, t)]
        while stack:
            node, t = stack.pop()
            if t == 0:  # tests cost at least 1, so only R = {} costs 0
                continue
            if isinstance(node, Leaf):
                out.append(node.var)
                continue
            tl = self.scaled[node][outcome][t][1]
            stack.append((node.left, tl))
            stack.append((node.right, t - tl))
        return frozenset(out)

    def determined(self, chosen: frozenset[int]) -> int:
        """The probability that the set's and ``chosen``'s outcomes
        determine the formula, times the root's denominator: the gates on
        the root paths of ``chosen``, children first, from the budget-0
        entries of the nodes off those paths."""
        formula, scaled = self.formula, self.scaled
        ones: dict[Node, int] = {}
        zeros: dict[Node, int] = {}
        for var in chosen:
            leaf = formula.leaves[var]
            ones[leaf], zeros[leaf] = formula.outcomes[var]
        for gate in formula.gates_above(chosen):
            for child in (gate.left, gate.right):
                if child not in ones:
                    ones[child], zeros[child] = scaled[child][1][0][0], scaled[child][0][0][0]
            _scaled_gate(gate, ones, zeros, formula.denominators)
        return ones[formula.root] + zeros[formula.root]

    def result(self) -> DensityResult:
        formula = self.formula
        root_tables = self.scaled[formula.root]
        # (gain, budget) per target; gains share the root's denominator, so
        # they compare as densities gain / budget
        best: dict[int, tuple[int, int]] = {}
        for outcome in (0, 1):
            root = root_tables[outcome]
            baseline = root[0][0]
            for t in root:  # ascending budgets, 0 first
                if t == 0:
                    continue
                gain = root[t][0] - baseline
                if outcome not in best or compare_density(gain, t, *best[outcome]) > 0:
                    best[outcome] = (gain, t)
        if not best:  # no budget above 0: every test of the formula is in ``s``
            raise NoFeasibleSuperset("every test has already been taken")
        outcome = 0 if compare_density(*best[0], *best[1]) > 0 else 1
        spent = best[outcome][1]
        chosen = self.chosen(formula.root, outcome, spent)
        # budget 0: the probabilities that the set alone determines 0, 1
        gain = self.determined(chosen) - root_tables[0][0][0] - root_tables[1][0][0]
        return DensityResult(tuple(sorted(chosen)),
                             Fraction(gain, formula.denominators[formula.root] * spent))


def to_msop(formula: ReadOnceFormula) -> MsopInstance:
    """Free-family instance: modular test costs, determination probability
    as the weight (``Determination``), whose lattice column is
    ``_determination_column``'s."""
    variables = formula.variables
    return MsopInstance(
        variables,
        free(variables),
        modular(variables, lambda: formula.costs),
        supply(Determination(formula), variables, lambda: _determination_column(formula)),
        name="rof",
    )


def supplement_solver(formula: ReadOnceFormula) -> DensitySolver:
    """Density solver wrapping the supplement search (factor 2), over the
    formula's ``to_msop`` instance (``_Supplements``).

    The solver keeps the pruned tables of its last base: driven up a
    greedy chain by each increment (``RunningOracle.advance``), a step
    recomputes the gates on the root paths of the tests the last step
    added, and once more, without keeping them, the probabilities on the
    root paths of the tests it adds."""
    return _Supplements(formula)
