"""The SP side of one ball, composed from the paper-literal fold ``src/``
keeps as the oracle -- ``verify_ball`` over ``enumerate_cmms``,
``_pair_product``, ``chunked_product`` -- with the label view only, as a
Player would.  The production calls (``evaluate_ball_kernel``,
``compute_pms_kernel``) must equal these value for value; ciphertexts and
results are dataclasses, so ``==`` compares every value, ``power``,
``value_bits`` and the result shape at once.  Beside them, the set-based
dual simulation the bitset fixpoint of ``repro.semantics.ssim`` must equal,
and Alg. 1 walked in ``V_Q`` order (:func:`iter_projected_masks`), the
recorded mask stream ``prepare_ball`` must equal, and the vertex-by-vertex
twiglet DFS (:func:`iter_twiglets_from`) the label-set walk of
``twiglets_from`` must equal.
"""

from collections import Counter
from itertools import combinations

from repro.core.aggregation import aggregate_items, chunked_product
from repro.core.encoding import encrypt_query_matrix
from repro.core.enumeration import (
    PreparedBall,
    candidate_vertices,
    count_cmm_upper_bound,
    enumerate_cmms,
)
from repro.core.neighbors import neighbor_features
from repro.core.ssim_verification import (
    SsimBallVerdict,
    _pair_product,
    ssim_plan,
)
from repro.core.table_pruning import table_plan
from repro.core.twiglets import Twiglet
from repro.core.verification import verification_plan, verify_ball
from repro.framework.messages import EncryptedQueryMessage
from repro.graph.query import QueryLabelView, Semantics


def message_of(scheme, query, **tables):
    """The user's encrypted query under ``scheme``, built directly."""
    return EncryptedQueryMessage(
        semantics=query.semantics, diameter=query.diameter,
        vertex_labels=QueryLabelView.of(query).labels, params=scheme.params,
        encrypted_matrix=encrypt_query_matrix(scheme, query),
        c_one=scheme.encrypt_one(), **tables)


def oracle_evaluate_ball(message, ball, *, enumeration_limit,
                         cmm_bound_bypass):
    """The verdict ``evaluate_ball_kernel(message, ball, ...)`` returns."""
    view = QueryLabelView(labels=message.vertex_labels,
                          diameter=message.diameter,
                          semantics=message.semantics)
    fixed = (message.params, message.encrypted_matrix, message.c_one)
    if message.semantics is Semantics.SSIM:
        return _ssim_ball(fixed, view, ball)
    plan = verification_plan(message.params, view)
    if count_cmm_upper_bound(view, ball) > cmm_bound_bypass:
        return verify_ball(*fixed, ball, [], plan, bypassed=True)
    found = enumerate_cmms(view, ball, limit=enumeration_limit,
                           injective=message.semantics is Semantics.SUB_ISO)
    return verify_ball(*fixed, ball, found.cmms, plan,
                       bypassed=found.truncated)


def _ssim_ball(fixed, view, ball):
    params = fixed[0]
    plan = ssim_plan(params, view)
    per_vertex, center_items = [], []
    for row, u in enumerate(view.vertex_order):
        candidates = sorted(ball.graph.vertices_with_label(view.label(u)),
                            key=repr)
        items = [_pair_product(*fixed, view, ball, row, v, plan)
                 for v in candidates]
        per_vertex.append(aggregate_items(params, ball.ball_id, items, plan))
        if view.label(u) == ball.center_label:
            center_items.append(
                _pair_product(*fixed, view, ball, row, ball.center, plan))
    return SsimBallVerdict(
        ball_id=ball.ball_id, per_vertex=per_vertex,
        center=aggregate_items(params, ball.ball_id, center_items, plan))


def iter_projected_masks(query, ball, injective=False, cv=None):
    """Alg. 1 fused with Alg. 2's projection, walked in Alg. 1's own
    order: the packed ``M_p`` of every CMM ``iter_cmms`` yields, in the
    same order.

    Bit layout is ``repro.crypto.kernels.mask_of_pattern``'s: position
    ``pos(i, j) = i*(n-1) + (j if j < i else j - 1)`` holds ``M_p[i][j]``.
    One DFS over the ``V_Q`` rows carries the partial mask down the tree:
    mapping row ``r`` adds the bits ``pos(r, j)`` and ``pos(j, r)`` for
    ``j < r`` once per node.  ``cv`` hands down an already computed
    ``candidate_vertices``.
    """
    if cv is None:
        cv = candidate_vertices(query, ball)
    rows = [cv[u] for u in query.vertex_order]
    if not all(rows):
        return
    last = len(rows) - 1
    center = ball.center
    # A prefix that has not used the center is dead once no remaining row
    # carries the center's label (iter_cmms's feasibility cut).
    last_center_row = max((r for r, u in enumerate(query.vertex_order)
                           if query.label(u) == ball.center_label),
                          default=-1)
    succ = {v: ball.graph.successors(v) for v in set().union(*rows)}
    out_bits = [[1 << (r * last + j) for j in range(r)]
                for r in range(last + 1)]
    in_bits = [[1 << (j * last + r - 1) for j in range(r)]
               for r in range(last + 1)]
    chosen = [None] * (last + 1)
    cursor = [0] * (last + 1)        # next candidate of each row to try
    partial = [0] * (last + 2)       # mask bits among the rows above
    centered = [False] * (last + 2)  # some row above maps to the center
    row = 0
    while row >= 0:
        at = cursor[row]
        if at == len(rows[row]) or not (centered[row]
                                        or row <= last_center_row):
            cursor[row] = 0
            row -= 1
            continue
        cursor[row] = at + 1
        v = rows[row][at]
        above = chosen[:row]
        has_center = centered[row] or v == center
        if (injective and v in above) or (row == last and not has_center):
            continue  # footnote 3 / Alg. 1 lines 11-12
        mask = partial[row]
        succ_v = succ[v]
        for w, out_bit, in_bit in zip(above, out_bits[row], in_bits[row]):
            if w in succ_v:
                mask |= out_bit
            if v in succ[w]:
                mask |= in_bit
        if row == last:
            yield mask
            continue
        chosen[row] = v
        row += 1
        partial[row] = mask
        centered[row] = has_center


def reference_prepared_ball(query, ball, *, enumeration_limit,
                            cmm_bound_bypass):
    """The ``PreparedBall`` ``prepare_ball`` must return, recorded off
    :func:`iter_projected_masks` CMM by CMM in Alg. 1's order: bound
    bypass first, truncation at the ``limit+1``-th CMM with
    ``enumerated == limit``, distinct masks in first-appearance order,
    each with the number of CMMs that project to it."""
    def result(enumerated=0, truncated=False, bound_bypassed=False,
               masks=(), counts=()):
        return PreparedBall(ball_id=ball.ball_id, enumerated=enumerated,
                            truncated=truncated,
                            bound_bypassed=bound_bypassed, masks=masks,
                            counts=counts)

    cv = candidate_vertices(query, ball)
    if count_cmm_upper_bound(query, ball, cv) > cmm_bound_bypass:
        return result(bound_bypassed=True)
    stream = []
    for mask in iter_projected_masks(
            query, ball, injective=query.semantics is Semantics.SUB_ISO,
            cv=cv):
        if len(stream) >= enumeration_limit:
            return result(enumerated=len(stream), truncated=True)
        stream.append(mask)
    counts = Counter(stream)  # insertion order = first appearance
    return result(enumerated=len(stream), masks=tuple(counts),
                  counts=tuple(counts.values()))


def oracle_table_prune(params, tables, ball, features, c_one):
    """Alg. 5, factor by factor: what ``player_table_prune`` returns."""
    plan = table_plan(params, len(tables[0]))
    items = [
        chunked_product(params,
                        [c_one if key in features else table.ciphertexts[i]
                         for i, key in enumerate(table.keys)], c_one, plan)
        for table in tables if table.start_label == ball.center_label]
    return aggregate_items(params, ball.ball_id, items, plan)


def iter_twiglets_from(graph, start, h, alphabet=None):
    """DFS enumeration (Alg. 5 line 3) of the twiglets of ``graph`` that
    start at ``start``, one vertex at a time: undirected steps,
    pairwise-distinct labels, path lengths ``3..h`` labels plus their
    forked extensions, each built by the checked ``Twiglet``
    constructor.  ``twiglets_from`` must equal its set and ``paths_from``
    its fork-free members."""
    allowed = None if alphabet is None else {repr(l) for l in alphabet}
    start_key = repr(graph.label(start))
    if allowed is not None and start_key not in allowed:
        return

    def usable(v, used):
        key = repr(graph.label(v))
        if key in used:
            return None
        if allowed is not None and key not in allowed:
            return None
        return key

    def walk(v, path, used):
        if 3 <= len(path) <= h:
            yield Twiglet(path=path)
        # Forks from the path end: i-twiglet has path part i-1 labels,
        # 3 <= i <= h  =>  path part length 2..h-1.
        if 2 <= len(path) <= h - 1:
            fork_labels = set()
            for child in graph.neighbors(v):
                key = usable(child, used)
                if key is not None:
                    fork_labels.add(key)
            for pair in combinations(sorted(fork_labels), 2):
                yield Twiglet(path=path, fork=pair)
        if len(path) >= h:
            return
        for child in graph.neighbors(v):
            key = usable(child, used)
            if key is None:
                continue
            used.add(key)
            yield from walk(child, path + (key,), used)
            used.discard(key)

    yield from walk(start, (start_key,), {start_key})


def oracle_pms(message, ball, twiglet_h):
    """``{method: result}`` for the tables ``message`` carries -- one
    ball's slice of what ``compute_pms_kernel`` returns."""
    graph, center, alphabet = ball.graph, ball.center, message.alphabet
    twiglets = set(iter_twiglets_from(graph, center, twiglet_h, alphabet))
    methods = {
        "twiglet": (message.twiglet_tables, lambda: twiglets),
        "path": (message.path_tables,
                 lambda: {t for t in twiglets if t.fork is None}),
        "neighbor": (message.neighbor_tables,
                     lambda: neighbor_features(graph, center)),
    }
    return {name: oracle_table_prune(message.params, tables, ball,
                                     features(), message.c_one)
            for name, (tables, features) in methods.items() if tables}


def reference_dual_simulation(query, graph):
    """Set-based fixpoint -- the literal transcription of Def. 4 (3):
    what ``repro.semantics.ssim.maximal_dual_simulation``'s bitset
    fixpoint must equal (both compute the unique greatest fixpoint)."""
    sim = {
        u: set(graph.vertices_with_label(query.label(u)))
        for u in query.vertex_order
    }
    changed = True
    while changed:
        changed = False
        for u in query.vertex_order:
            survivors = set()
            for v in sim[u]:
                ok = True
                # (3b) every query child of u needs a simulated graph child.
                for u_child in query.pattern.successors(u):
                    if not (graph.successors(v) & sim[u_child]):
                        ok = False
                        break
                # (3c) every query parent of u needs a simulated graph parent.
                if ok:
                    for u_parent in query.pattern.predecessors(u):
                        if not (graph.predecessors(v) & sim[u_parent]):
                            ok = False
                            break
                if ok:
                    survivors.add(v)
            if survivors != sim[u]:
                sim[u] = survivors
                changed = True
    return sim
