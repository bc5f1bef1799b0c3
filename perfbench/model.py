"""The benchmark's own reading of instance files, used to check reports.

Nothing here imports ``msop``: the four file formats are parsed again and
feasibility, cost and weight are written from the file's definitions, so a
report is checked against a second implementation, not against the
program's own oracles.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

INF = float("inf")


def _num(text):
    """A file rational as an int when it is whole: int sums are far faster."""
    value = Fraction(text)
    return value.numerator if value.denominator == 1 else value


def _records(text):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


class Model:
    """Ground set plus feasibility, cost and weight of one instance file."""

    kind = ""
    alpha = 1

    def __init__(self):
        self._weights = {}

    def feasible(self, s):
        return True

    def cost(self, s):
        return sum(self.costs[v] for v in s)

    def weight(self, s):
        s = frozenset(s)
        if s not in self._weights:
            self._weights[s] = self._weight(s)
        return self._weights[s]


class Covering(Model):
    kind = "mssc"

    def __init__(self, lines):
        super().__init__()
        self.costs = {}
        self.edges = []
        for line in lines:
            word, *rest = line.split()
            if word == "elements":
                n = int(rest[0])
            elif word == "cost":
                self.costs[int(rest[0])] = _num(rest[1])
            elif word == "edge":
                self.edges.append((_num(rest[0]), frozenset(map(int, rest[1:]))))
        for v in range(n):
            self.costs.setdefault(v, 1)
        self.ground = frozenset(range(n))

    def _weight(self, s):
        return sum(w for w, members in self.edges if not members.isdisjoint(s))


class OrSchedule(Model):
    kind = "orsched"

    def __init__(self, lines):
        super().__init__()
        self.costs = {}
        self.values = {}
        self.preds = {}
        for line in lines:
            word, *rest = line.split()
            if word == "job":
                j = int(rest[0])
                self.costs[j] = _num(rest[1])
                self.values[j] = _num(rest[2])
                self.preds.setdefault(j, set())
            elif word == "arc":
                self.preds.setdefault(int(rest[1]), set()).add(int(rest[0]))
        self.ground = frozenset(self.costs)

    def feasible(self, s):
        # OR-initial: a job with predecessors needs one of them in the set
        return all(not self.preds[j] or not self.preds[j].isdisjoint(s) for j in s)

    def _weight(self, s):
        return sum(self.values[j] for j in s)


class Formula(Model):
    kind = "rof"
    alpha = 2

    def __init__(self, lines):
        super().__init__()
        self.costs = {}
        self.probs = {}
        for line in lines:
            word, _, rest = line.partition(" ")
            if word == "var":
                i, p, c = rest.split()
                self.probs[int(i)] = Fraction(p)
                self.costs[int(i)] = _num(c)
            elif word == "formula":
                self.postorder = _postorder(rest)
        self.ground = frozenset(self.probs)

    def _weight(self, s):
        """Probability that the outcomes of the tests in ``s`` fix the value."""
        stack = []  # (P[fixed to 1], P[fixed to 0]) per finished subtree
        for item in self.postorder:
            if isinstance(item, int):
                p = self.probs[item]
                stack.append((p, 1 - p) if item in s else (Fraction(0), Fraction(0)))
                continue
            r1, r0 = stack.pop()
            l1, l0 = stack.pop()
            if item == "and":
                stack.append((l1 * r1, 1 - (1 - l0) * (1 - r0)))
            else:
                stack.append((1 - (1 - l1) * (1 - r1), l0 * r0))
        one, zero = stack.pop()
        return one + zero


def _postorder(expr):
    """Leaves as variable ids and gates as 'and'/'or', children first."""
    out = []
    ops = []
    for token in expr.replace("(", " ( ").replace(")", " ) ").split():
        if token == "(":
            ops.append(None)
        elif token in ("and", "or"):
            ops[-1] = token
        elif token == ")":
            out.append(ops.pop())
        else:
            out.append(int(token[1:]))
    return out


class Search(Model):
    kind = "xsearch"

    def __init__(self, lines):
        super().__init__()
        self.probs = {}
        self.edge_list = []
        for line in lines:
            word, *rest = line.split()
            if word == "root":
                self.root = int(rest[0])
            elif word == "vertex":
                self.probs[int(rest[0])] = _num(rest[1])
            elif word == "edge":
                self.edge_list.append((int(rest[0]), int(rest[1]), _num(rest[2])))
        self.costs = {i: c for i, (_, _, c) in enumerate(self.edge_list)}
        self.ground = frozenset(self.costs)

    def feasible(self, s):
        """Every edge of ``s`` joins the root through edges of ``s``."""
        reached = {self.root}
        left = set(s)
        grew = True
        while left and grew:
            grew = False
            for i in list(left):
                u, v, _ = self.edge_list[i]
                if u in reached or v in reached:
                    reached.update((u, v))
                    left.discard(i)
                    grew = True
        return not left

    def _weight(self, s):
        touched = set()
        for i in s:
            u, v, _ = self.edge_list[i]
            touched.update((u, v))
        touched.discard(self.root)
        return sum(self.probs[v] for v in touched)


MODELS = {"mssc": Covering, "orsched": OrSchedule, "rof": Formula, "xsearch": Search}


def read_model(path):
    with open(path, encoding="utf-8") as handle:
        lines = list(_records(handle.read()))
    header = lines[0].split()
    return MODELS[header[1]](lines[1:])


def density(model, base, candidate):
    df = model.cost(candidate) - model.cost(base)
    dg = model.weight(candidate) - model.weight(base)
    return INF if df == 0 else Fraction(dg) / df


def objective(model, sets):
    """sum_j cost(S_j) * (weight(S_j) - weight(S_{j-1})) from S_0 = {}."""
    total = 0
    prev = 0
    for s in sets:
        w = model.weight(s)
        total += model.cost(s) * (w - prev)
        prev = w
    return total


def brute_opt_permutation(model):
    """Minimum objective over all feasible permutations, by enumeration.

    Feasibility, cost and weight of every subset are tabulated first by
    bitmask, scaled to integers, so each permutation costs n lookups.
    """
    ground = sorted(model.ground)
    n = len(ground)
    subsets = [frozenset(v for i, v in enumerate(ground) if m >> i & 1) for m in range(1 << n)]
    costs = [Fraction(model.cost(s)) for s in subsets]
    weights = [Fraction(model.weight(s)) for s in subsets]
    scale = math.lcm(*(x.denominator for x in costs + weights))
    cost = [int(x * scale) for x in costs]
    weight = [int(x * scale) for x in weights]
    feasible = [model.feasible(s) for s in subsets]
    best = None
    for order in itertools.permutations(range(n)):
        mask = total = prev = 0
        for i in order:
            mask |= 1 << i
            if not feasible[mask]:
                break
            total += cost[mask] * (weight[mask] - prev)
            prev = weight[mask]
        else:
            if best is None or total < best:
                best = total
    return None if best is None else Fraction(best, scale * scale)
