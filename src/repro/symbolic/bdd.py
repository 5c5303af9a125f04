"""A stdlib-only hash-consed BDD core.

Reduced ordered binary decision diagrams with a single unique table:
``(var, low, high)`` triples are interned once, so semantic equality is
id equality and every operation memoizes on node ids.  The manager is
deliberately small -- the operations the symbolic reachability and
CSC/USC checks need, nothing speculative:

* :meth:`BDD.apply_and` / :meth:`apply_or` / :meth:`apply_xor` /
  :meth:`negate` -- boolean connectives;
* :meth:`BDD.exists` -- existential quantification over a variable set;
* :meth:`BDD.saturate` -- the least fixpoint of a set under the images
  of rewrite plans (transition firings), by saturation: one image walk,
  :meth:`BDD._image`, fires a plan in one memoized pass and closes
  every node it rebuilds below the plan's top variable;
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

#: Plan actions, one per rewritten variable: ``TAKE`` needs 1 and writes
#: 0; ``PUT`` writes 1 and raises :class:`GuardError` on a 1; ``READ``
#: needs 1 and keeps it; ``SET``/``CLEAR`` write 1/0 whatever the old
#: value; ``FLIP`` writes the complement.
TAKE, PUT, READ, SET, CLEAR, FLIP = range(6)

_TERMINAL_VAR = 1 << 30  # deeper than any real variable


class GuardError(Exception):
    """A ``PUT`` variable of a plan was already 1 in a state it fires on.

    ``event`` is the index of that plan among :meth:`BDD.saturate`'s.
    """

    def __init__(self, var: int) -> None:
        super().__init__(var)
        self.event: Optional[int] = None


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
        #: One memo table per operation name (per plan for the plain
        #: image walk).
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
    # images and saturation
    # ------------------------------------------------------------------
    def saturate(self, f: int, plans: Sequence[Tuple[Tuple[int, int], ...]],
                 on_round: Optional[Callable[[], None]] = None
                 ) -> Tuple[int, Dict[str, int]]:
        """The least superset of ``f`` closed under every plan's image.

        Saturation (Ciardo, Lüttgen and Siminiceanu, TACAS 2001): an
        event belongs to the level of its plan's top variable, and a set
        is closed at a level when the events of that level and of every
        level below it add nothing.  The walk closes each node bottom-up
        as it rebuilds it, so an event fires on small subsets whose lower
        levels are already complete.  ``on_round`` is called before each
        round over a level's events (the clock check of a budget).
        Returns the fixpoint and its exact work counts: ``images`` fired,
        ``closures`` computed and fixpoint ``rounds``.  A :class:`GuardError`
        raised here names the index of the firing plan in ``event``.
        """
        run = _Saturation(self, plans, on_round)
        fixpoint = self._image(f, (), 0, 0, {}, run)
        return fixpoint, {"images": run.images, "closures": run.closures,
                          "rounds": run.rounds}

    def _image(self, f: int, plan: Tuple[Tuple[int, int], ...], pos: int,
               level: int, memo: dict, run: "_Saturation") -> int:
        """The image of ``f`` under ``plan[pos:]``, in one memoized pass.

        ``plan`` lists ``(variable, action)`` steps in variable order (see
        :data:`TAKE` and its siblings); variables outside it keep their
        values.  The walk copies levels outside the plan, follows the
        required branch of a ``TAKE``/``READ`` step, ORs both branches of
        a ``SET``/``CLEAR`` step, swaps the branches of a ``FLIP`` step
        and rebuilds each rewritten level with its new value.  Raises
        :class:`GuardError` when some state of ``f`` that meets every
        requirement has a ``PUT`` variable at 1.

        The result is closed at ``level`` and below under ``run``'s
        events: every node rebuilt at an event level, or skipped over
        one, is closed there (:meth:`_Saturation.close`).  ``f`` must be
        closed below the plan's last step, and an empty plan saturates
        ``f``.  A run without events gives the plain image.
        """
        if f == FALSE:
            return FALSE
        last = len(plan)
        none = self.num_vars
        above = run.next_level[level]
        if pos == last and (last or above == none):
            return f
        key = (f * (last + 1) + pos) * (none + 1) + above
        found = memo.get(key)
        if found is not None:
            return found
        var, action = plan[pos] if pos < last else (_TERMINAL_VAR, None)
        top = self._var[f]
        if above < top and above < var:
            # An event level ``f`` does not test: close the set there too.
            result = run.close(above, self._image(f, plan, pos, above + 1,
                                                  memo, run))
        elif top < var:
            result = self.node(
                top, self._image(self._low[f], plan, pos, top + 1, memo, run),
                self._image(self._high[f], plan, pos, top + 1, memo, run))
            if top == above:
                result = run.close(top, result)
        else:
            low, high = (self._low[f], self._high[f]) if top == var \
                else (f, f)
            pos += 1
            level = var + 1
            if action == TAKE:
                result = self.node(
                    var, self._image(high, plan, pos, level, memo, run), FALSE)
            elif action == READ:
                result = self.node(
                    var, FALSE, self._image(high, plan, pos, level, memo, run))
            elif action == PUT:
                if self._image(high, plan, pos, level, memo, run) != FALSE:
                    raise GuardError(var)
                result = self.node(
                    var, FALSE, self._image(low, plan, pos, level, memo, run))
            else:
                low = self._image(low, plan, pos, level, memo, run)
                high = self._image(high, plan, pos, level, memo, run)
                if action == FLIP:
                    result = self.node(var, high, low)
                else:
                    either = self.apply_or(low, high)
                    result = self.node(var, either, FALSE) \
                        if action == CLEAR else self.node(var, FALSE, either)
            if var == above:
                result = run.close(var, result)
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


class _Saturation:
    """The events of one :meth:`BDD.saturate` run, grouped by level.

    ``next_level[v]`` is the first event level at or below variable
    ``v`` (``num_vars`` when there is none).  Each plan keeps its own
    walk memo; ``closed`` maps ``(node, level)`` to its closure, and a
    closure is its own closure at its level.
    """

    __slots__ = ("bdd", "events", "next_level", "closed", "on_round",
                 "images", "closures", "rounds")

    def __init__(self, bdd: BDD, plans, on_round) -> None:
        self.bdd = bdd
        self.events: Dict[int, list] = {}
        for index, plan in enumerate(plans):
            if plan:
                self.events.setdefault(plan[0][0], []).append(
                    (index, plan, {}))
        none = bdd.num_vars
        self.next_level = [none] * (none + 1)
        for var in range(none - 1, -1, -1):
            self.next_level[var] = var if var in self.events \
                else self.next_level[var + 1]
        self.closed: Dict[int, int] = {}
        self.on_round = on_round
        self.images = self.closures = self.rounds = 0

    def close(self, level: int, f: int) -> int:
        """``f``, closed below ``level``, closed at ``level`` too."""
        if f == FALSE:
            return FALSE
        stride = self.bdd.num_vars + 1
        key = f * stride + level
        found = self.closed.get(key)
        if found is not None:
            return found
        image_of = self.bdd._image
        events = self.events[level]
        changed = True
        while changed:
            self.rounds += 1
            if self.on_round is not None:
                self.on_round()
            before = f
            for index, plan, memo in events:
                self.images += 1
                try:
                    image = image_of(f, plan, 0, level + 1, memo, self)
                except GuardError as err:
                    if err.event is None:
                        err.event = index
                    raise
                if image != FALSE:
                    f = self.bdd.apply_or(f, image)
            changed = f != before
        self.closures += 1
        self.closed[key] = self.closed[f * stride + level] = f
        return f
