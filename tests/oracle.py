"""The SP side of one ball, composed from the paper-literal fold ``src/``
keeps as the oracle -- ``verify_ball`` over ``enumerate_cmms``,
``_pair_product``, ``chunked_product`` -- with the label view only, as a
Player would.  The production calls (``evaluate_ball_kernel``,
``compute_pms_kernel``) must equal these value for value; ciphertexts and
results are dataclasses, so ``==`` compares every value, ``power``,
``value_bits`` and the result shape at once.  Beside them, the set-based
dual simulation the bitset fixpoint of ``repro.semantics.ssim`` must equal.
"""

from repro.core.aggregation import aggregate_items, chunked_product
from repro.core.encoding import encrypt_query_matrix
from repro.core.enumeration import count_cmm_upper_bound, enumerate_cmms
from repro.core.neighbors import neighbor_features
from repro.core.paths import paths_from
from repro.core.ssim_verification import (
    SsimBallVerdict,
    _pair_product,
    ssim_plan,
)
from repro.core.table_pruning import table_plan
from repro.core.twiglets import twiglets_from
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


def oracle_table_prune(params, tables, ball, features, c_one):
    """Alg. 5, factor by factor: what ``player_table_prune`` returns."""
    plan = table_plan(params, len(tables[0]))
    items = [
        chunked_product(params,
                        [c_one if key in features else table.ciphertexts[i]
                         for i, key in enumerate(table.keys)], c_one, plan)
        for table in tables if table.start_label == ball.center_label]
    return aggregate_items(params, ball.ball_id, items, plan)


def oracle_pms(message, ball, twiglet_h):
    """``{method: result}`` for the tables ``message`` carries -- one
    ball's slice of what ``compute_pms_kernel`` returns."""
    graph, center, alphabet = ball.graph, ball.center, message.alphabet
    methods = {
        "twiglet": (message.twiglet_tables,
                    lambda: twiglets_from(graph, center, twiglet_h, alphabet)),
        "path": (message.path_tables,
                 lambda: paths_from(graph, center, twiglet_h, alphabet)),
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
