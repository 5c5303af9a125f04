"""A stdlib-only hash-consed BDD core.

Reduced ordered binary decision diagrams with a single unique table:
``(var, low, high)`` triples are interned once, so semantic equality is
id equality and every operation memoizes on node ids.  The manager is
deliberately small -- the operations the symbolic reachability and
CSC/USC checks need, nothing speculative:

* :meth:`BDD.apply_and` / :meth:`apply_or` / :meth:`apply_xor` /
  :meth:`negate` -- boolean connectives;
* :meth:`BDD.exists` -- existential quantification over a variable set;
* :meth:`BDD.fire` -- the image of a set under a rewrite plan (one
  transition firing, in one memoized pass);
* :meth:`BDD.rename` -- order-preserving variable substitution (the
  unprimed -> primed shift of the CSC self-product);
* :meth:`BDD.count` -- model counting over a declared variable universe;
* :meth:`BDD.models` -- deterministic satisfying-assignment enumeration
  (for conflict witnesses).

Determinism is a design constraint, not an accident: node ids are
assigned in creation order, every table is a plain dict keyed by ints or
int tuples (insertion-ordered, hash-seed independent), and no operation
consults iteration order of anything seed-dependent.  Two processes
running the same op sequence under different ``PYTHONHASHSEED`` values
build byte-identical tables, so node counts and rendered payloads are
stable enough to pin in golden tests and bench canonicals.

Variable order is the integer order of variable indices: variable 0 is
closest to the root.  Callers pick the order when they allocate
variables (see :mod:`repro.symbolic.encode` for why interleaving primed
copies matters).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["BDD", "FALSE", "TRUE", "GuardError",
           "TAKE", "PUT", "READ", "SET", "CLEAR", "FLIP"]

#: Terminal node ids (fixed forever; every table starts with them).
FALSE = 0
TRUE = 1

#: :meth:`BDD.fire` plan actions, one per rewritten variable: ``TAKE``
#: needs 1 and writes 0; ``PUT`` writes 1 and raises :class:`GuardError`
#: on a 1; ``READ`` needs 1 and keeps it; ``SET``/``CLEAR`` write 1/0
#: whatever the old value; ``FLIP`` writes the complement.
TAKE, PUT, READ, SET, CLEAR, FLIP = range(6)

_TERMINAL_VAR = 1 << 30  # deeper than any real variable


class GuardError(Exception):
    """A ``PUT`` variable of a :meth:`BDD.fire` plan was already 1."""


class BDD:
    """A BDD manager over ``num_vars`` ordered boolean variables.

    ``on_grow`` (optional) is called with the total allocated node count
    every time the unique table grows by ``grow_step`` nodes -- the hook
    the budgeted reachability uses to charge BDD nodes without polling.
    ``next_check`` is the node id whose allocation calls it next; a hook
    may move that earlier.
    """

    __slots__ = ("num_vars", "_var", "_low", "_high", "_unique", "_vars",
                 "_nvars", "_cache", "on_grow", "grow_step", "next_check")

    def __init__(self, num_vars: int,
                 on_grow: Optional[Callable[[int], None]] = None,
                 grow_step: int = 4096) -> None:
        if num_vars < 0:
            raise ValueError(f"num_vars must be >= 0, got {num_vars}")
        self.num_vars = num_vars
        # Parallel node arrays; ids 0/1 are the terminals.  The terminal
        # "variable" sorts below every real variable.
        self._var: List[int] = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._low: List[int] = [0, 1]
        self._high: List[int] = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._vars: Dict[int, int] = {}   # var index -> positive literal id
        self._nvars: Dict[int, int] = {}  # var index -> negative literal id
        #: One memo table per operation name (per plan for :meth:`fire`);
        #: cleared together.
        self._cache: Dict[object, dict] = {}
        self.on_grow = on_grow
        self.grow_step = grow_step
        self.next_check = grow_step

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Total allocated nodes, terminals included (monotone)."""
        return len(self._var)

    def node(self, var: int, low: int, high: int) -> int:
        """The interned node for ``var ? high : low`` (reduced)."""
        if low == high:
            return low
        key = (var, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        node_id = len(self._var)
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = node_id
        if self.on_grow is not None and node_id >= self.next_check:
            self.next_check = node_id + self.grow_step
            self.on_grow(node_id + 1)
        return node_id

    def var(self, index: int) -> int:
        """The positive literal of variable ``index``."""
        found = self._vars.get(index)
        if found is None:
            if not 0 <= index < self.num_vars:
                raise IndexError(f"variable {index} outside "
                                 f"[0, {self.num_vars})")
            found = self.node(index, FALSE, TRUE)
            self._vars[index] = found
        return found

    def nvar(self, index: int) -> int:
        """The negative literal of variable ``index``."""
        found = self._nvars.get(index)
        if found is None:
            if not 0 <= index < self.num_vars:
                raise IndexError(f"variable {index} outside "
                                 f"[0, {self.num_vars})")
            found = self.node(index, TRUE, FALSE)
            self._nvars[index] = found
        return found

    def size(self, f: int) -> int:
        """Nodes reachable from ``f``, terminals excluded."""
        seen = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        return len(seen)

    def clear_caches(self) -> None:
        """Drop every operation memo (the unique table stays)."""
        self._cache.clear()

    def _memo(self, op: object) -> dict:
        table = self._cache.get(op)
        if table is None:
            table = self._cache[op] = {}
        return table

    # ------------------------------------------------------------------
    # connectives
    # ------------------------------------------------------------------
    def apply_and(self, f: int, g: int) -> int:
        if f == FALSE or g == FALSE:
            return FALSE
        if f == TRUE:
            return g
        if g == TRUE or f == g:
            return f
        if f > g:
            f, g = g, f
        memo = self._memo("and")
        key = (f, g)
        found = memo.get(key)
        if found is not None:
            return found
        var_f, var_g = self._var[f], self._var[g]
        top = var_f if var_f < var_g else var_g
        f0, f1 = (self._low[f], self._high[f]) if var_f == top else (f, f)
        g0, g1 = (self._low[g], self._high[g]) if var_g == top else (g, g)
        result = self.node(top, self.apply_and(f0, g0),
                           self.apply_and(f1, g1))
        memo[key] = result
        return result

    def apply_or(self, f: int, g: int) -> int:
        if f == TRUE or g == TRUE:
            return TRUE
        if f == FALSE:
            return g
        if g == FALSE or f == g:
            return f
        if f > g:
            f, g = g, f
        memo = self._memo("or")
        key = (f, g)
        found = memo.get(key)
        if found is not None:
            return found
        var_f, var_g = self._var[f], self._var[g]
        top = var_f if var_f < var_g else var_g
        f0, f1 = (self._low[f], self._high[f]) if var_f == top else (f, f)
        g0, g1 = (self._low[g], self._high[g]) if var_g == top else (g, g)
        result = self.node(top, self.apply_or(f0, g0), self.apply_or(f1, g1))
        memo[key] = result
        return result

    def apply_xor(self, f: int, g: int) -> int:
        if f == FALSE:
            return g
        if g == FALSE:
            return f
        if f == g:
            return FALSE
        if f == TRUE:
            return self.negate(g)
        if g == TRUE:
            return self.negate(f)
        if f > g:
            f, g = g, f
        memo = self._memo("xor")
        key = (f, g)
        found = memo.get(key)
        if found is not None:
            return found
        var_f, var_g = self._var[f], self._var[g]
        top = var_f if var_f < var_g else var_g
        f0, f1 = (self._low[f], self._high[f]) if var_f == top else (f, f)
        g0, g1 = (self._low[g], self._high[g]) if var_g == top else (g, g)
        result = self.node(top, self.apply_xor(f0, g0),
                           self.apply_xor(f1, g1))
        memo[key] = result
        return result

    def negate(self, f: int) -> int:
        if f == FALSE:
            return TRUE
        if f == TRUE:
            return FALSE
        memo = self._memo("not")
        found = memo.get(f)
        if found is not None:
            return found
        result = self.node(self._var[f], self.negate(self._low[f]),
                           self.negate(self._high[f]))
        memo[f] = result
        memo[result] = f
        return result

    def diff(self, f: int, g: int) -> int:
        """``f AND NOT g`` (the frontier-minus-reached step)."""
        return self.apply_and(f, self.negate(g))

    def cube(self, assignment: Sequence[Tuple[int, int]]) -> int:
        """The minterm cube ``AND_i (var_i == value_i)``.

        Built deepest-variable first so each :meth:`node` call adds at
        most one node -- a cube is a chain, never a DAG blowup.
        """
        result = TRUE
        for index, value in sorted(assignment, reverse=True):
            if value:
                result = self.node(index, FALSE, result)
            else:
                result = self.node(index, result, FALSE)
        return result

    # ------------------------------------------------------------------
    # quantification
    # ------------------------------------------------------------------
    def exists(self, f: int, indices: Sequence[int]) -> int:
        """``exists indices . f`` (smoothing over a variable set)."""
        if not indices:
            return f
        cube = tuple(sorted(set(indices)))
        memo = self._memo("exists")
        return self._exists(f, cube, memo)

    def _exists(self, f: int, cube: Tuple[int, ...], memo: dict) -> int:
        if f <= TRUE:
            return f
        var = self._var[f]
        # Drop quantified variables above the root: they no longer matter.
        start = 0
        while start < len(cube) and cube[start] < var:
            start += 1
        rest = cube[start:]
        if not rest:
            return f
        key = (f, rest)
        found = memo.get(key)
        if found is not None:
            return found
        low = self._exists(self._low[f], rest, memo)
        if var == rest[0]:
            # OR of the two cofactors; shortcut when low is already TRUE.
            if low == TRUE:
                result = TRUE
            else:
                result = self.apply_or(low, self._exists(self._high[f],
                                                         rest, memo))
        else:
            result = self.node(var, low,
                               self._exists(self._high[f], rest, memo))
        memo[key] = result
        return result

    # ------------------------------------------------------------------
    # images
    # ------------------------------------------------------------------
    def fire(self, f: int, plan: Tuple[Tuple[int, int], ...]) -> int:
        """The image of ``f`` under ``plan``, in one memoized pass.

        ``plan`` lists ``(variable, action)`` steps in variable order (see
        :data:`TAKE` and its siblings); variables outside it keep their
        values.  The walk copies levels outside the plan, follows the
        required branch of a ``TAKE``/``READ`` step, ORs both branches of
        a ``PUT``/``SET``/``CLEAR`` step, swaps the branches of a ``FLIP``
        step and rebuilds each rewritten level with its new value.
        Raises :class:`GuardError` when some state of ``f`` that meets
        every requirement has a ``PUT`` variable at 1.  The memo belongs
        to the plan and lives as long as the manager.
        """
        return self._fire(f, plan, 0, len(plan) + 1, self._memo(plan))

    def _fire(self, f: int, plan: Tuple[Tuple[int, int], ...], pos: int,
              width: int, memo: dict) -> int:
        if f == FALSE or pos == width - 1:
            return f
        key = f * width + pos
        found = memo.get(key)
        if found is not None:
            return found
        var, action = plan[pos]
        top = self._var[f]
        if top < var:
            result = self.node(top,
                               self._fire(self._low[f], plan, pos, width,
                                          memo),
                               self._fire(self._high[f], plan, pos, width,
                                          memo))
        else:
            low, high = (self._low[f], self._high[f]) if top == var \
                else (f, f)
            pos += 1
            if action == TAKE:
                result = self.node(
                    var, self._fire(high, plan, pos, width, memo), FALSE)
            elif action == READ:
                result = self.node(
                    var, FALSE, self._fire(high, plan, pos, width, memo))
            else:
                low = self._fire(low, plan, pos, width, memo)
                high = self._fire(high, plan, pos, width, memo)
                if action == FLIP:
                    result = self.node(var, high, low)
                elif action == PUT:
                    if high != FALSE:
                        raise GuardError(var)
                    result = self.node(var, FALSE, low)
                else:
                    either = self.apply_or(low, high)
                    result = self.node(var, either, FALSE) \
                        if action == CLEAR else self.node(var, FALSE, either)
        memo[key] = result
        return result

    # ------------------------------------------------------------------
    # substitution
    # ------------------------------------------------------------------
    def rename(self, f: int, mapping: Dict[int, int]) -> int:
        """Substitute variables by ``mapping`` (must preserve the order).

        Every mapped pair must satisfy the same relative order as the
        originals (``a < b`` implies ``mapping[a] < mapping[b]``, and
        unmapped variables must keep their position relative to mapped
        ones); the interleaved place/primed-place layout of the encoder
        satisfies this by construction.  Order-preservation makes rename
        a single memoized traversal instead of a compose cascade.
        """
        if not mapping:
            return f
        items = tuple(sorted(mapping.items()))
        for (a, fa), (b, fb) in zip(items, items[1:]):
            if not (a < b and fa < fb):
                raise ValueError(
                    f"rename mapping must be order-preserving; "
                    f"{a}->{fa} and {b}->{fb} cross")
        memo = self._memo("rename")
        return self._rename(f, dict(items), items, memo)

    def _rename(self, f: int, mapping: Dict[int, int],
                items: Tuple[Tuple[int, int], ...], memo: dict) -> int:
        if f <= TRUE:
            return f
        key = (f, items)
        found = memo.get(key)
        if found is not None:
            return found
        var = self._var[f]
        result = self.node(mapping.get(var, var),
                           self._rename(self._low[f], mapping, items, memo),
                           self._rename(self._high[f], mapping, items, memo))
        memo[key] = result
        return result

    # ------------------------------------------------------------------
    # counting and enumeration
    # ------------------------------------------------------------------
    def count(self, f: int, care: Sequence[int]) -> int:
        """Satisfying assignments of ``f`` over the ``care`` variables.

        ``care`` must cover the support of ``f``; variables in ``care``
        that ``f`` does not mention contribute a factor of two each
        (don't-care expansion).  Exact -- python ints don't overflow.
        """
        order = tuple(sorted(set(care)))
        rank = {index: i for i, index in enumerate(order)}
        total = len(order)
        memo = self._memo("count")

        def walk(node: int) -> int:
            # Models over the care variables *below* the node's level.
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1
            key = (node, order)
            found = memo.get(key)
            if found is None:
                var = self._var[node]
                if var not in rank:
                    raise ValueError(
                        f"count: variable {var} in the support of the "
                        f"function but not in the care set")
                low, high = self._low[node], self._high[node]
                found = (walk(low) << _gap(var, low)) \
                    + (walk(high) << _gap(var, high))
                memo[key] = found
            return found

        def _gap(var: int, child: int) -> int:
            # Care variables strictly between var and the child's root.
            child_var = self._var[child]
            child_rank = total if child_var not in rank else rank[child_var]
            return child_rank - rank[var] - 1

        if f == FALSE:
            return 0
        if f == TRUE:
            return 1 << total
        root_rank = rank.get(self._var[f])
        if root_rank is None:
            raise ValueError(
                f"count: root variable {self._var[f]} not in the care set")
        return walk(f) << root_rank

    def models(self, f: int, care: Sequence[int],
               limit: Optional[int] = None
               ) -> Iterator[Tuple[Tuple[int, int], ...]]:
        """Satisfying assignments as ``((var, value), ...)`` tuples.

        Deterministic order: depth-first, 0-branch before 1-branch, with
        don't-care variables expanded (0 first).  ``limit`` caps the
        yield count.  Intended for witness extraction on small conflict
        sets, not bulk enumeration.
        """
        order = tuple(sorted(set(care)))
        emitted = 0

        def walk(node: int, depth: int, prefix: List[Tuple[int, int]]
                 ) -> Iterator[Tuple[Tuple[int, int], ...]]:
            if node == FALSE:
                return
            if depth == len(order):
                yield tuple(prefix)
                return
            var = order[depth]
            node_var = self._var[node]
            if node_var == var:
                branches = ((0, self._low[node]), (1, self._high[node]))
            else:  # don't-care at this level (includes node == TRUE)
                branches = ((0, node), (1, node))
            for value, child in branches:
                prefix.append((var, value))
                yield from walk(child, depth + 1, prefix)
                prefix.pop()

        for model in walk(f, 0, []):
            yield model
            emitted += 1
            if limit is not None and emitted >= limit:
                return
