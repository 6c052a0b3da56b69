"""One arithmetic path, held to the paper-literal fold.

* The production calls -- ``evaluate_ball_kernel`` and
  ``compute_pms_kernel``, which always compute through the batched kernels
  -- return, per ball, exactly what the oracle composed in
  ``tests/oracle.py`` returns: hom / sub-iso / ssim under a summable and a
  chunked layout, and the twiglet / path / neighbor tables, on balls that
  hit a bound bypass, a truncation and repeated patterns.
* The oracle is reference *and* API, but nothing else under ``src/`` may
  call it, and the names of the deleted second path stay deleted.
"""

import re
from pathlib import Path

import pytest

from repro.core.bf_pruning import BFConfig
from repro.core.enumeration import prepare_ball
from repro.core.neighbors import build_neighbor_tables
from repro.core.paths import build_path_tables
from repro.core.ssim_verification import ssim_plan
from repro.core.twiglets import build_twiglet_tables
from repro.core.verification import verification_plan
from repro.crypto.cgbe import CGBE
from repro.crypto.kernels import MultiExpRegistry
from repro.framework.prilo import Prilo
from repro.framework.roles import compute_pms_kernel, evaluate_ball_kernel
from repro.graph.query import QueryLabelView, Semantics
from repro.tee.enclave import Enclave
from tests.oracle import message_of, oracle_evaluate_ball, oracle_pms
from tests.test_pattern_dedup import random_world

#: Tight bounds (a bound bypass and truncations), then none at all (every
#: ball folded, the large ones with many CMMs per distinct pattern).
BOUNDS = [dict(enumeration_limit=5, cmm_bound_bypass=100),
          dict(enumeration_limit=10 ** 9, cmm_bound_bypass=10 ** 9)]


@pytest.fixture(scope="module")
def schemes():
    """12-factor Alg. 2 products and 8-factor ssim pair products fit one
    1024-bit ciphertext and take 3 / 2 chunks of a 256-bit one."""
    return {"summable": CGBE.generate(modulus_bits=1024, q_bits=24,
                                      r_bits=24, seed=14),
            "chunked": CGBE.generate(modulus_bits=256, q_bits=24,
                                     r_bits=24, seed=5)}


@pytest.mark.parametrize("layout", ["summable", "chunked"])
@pytest.mark.parametrize("semantics", list(Semantics), ids=lambda s: s.value)
def test_evaluation_equals_the_paper_literal_fold(schemes, semantics, layout):
    scheme = schemes[layout]
    worlds = [random_world(seed, semantics) for seed in range(40)]
    query, _ = worlds[0]
    view = QueryLabelView.of(query)
    # One label view, many balls (tests/test_pattern_dedup.py's fixture).
    balls = [ball for other, ball in worlds
             if QueryLabelView.of(other).labels == view.labels]
    message = message_of(scheme, query)
    ssim = semantics is Semantics.SSIM
    plan = (ssim_plan if ssim else verification_plan)(scheme.params, view)
    assert plan.summable == (layout == "summable")
    shared = MultiExpRegistry()  # as a share would; None: a private one
    hit = set()
    for bounds in BOUNDS:
        for ball in balls:
            oracle = oracle_evaluate_ball(message, ball, **bounds)
            for multiexp in (None, shared):
                result = evaluate_ball_kernel(message, ball,
                                              multiexp=multiexp, **bounds)
                assert result.verdict == oracle
            if ssim:
                continue
            prepared = prepare_ball(view, ball, **bounds)
            assert result.cmms == prepared.enumerated
            assert result.bypassed == oracle.bypassed == prepared.bypassed
            hit |= {name for name, here in (
                ("bound bypass", prepared.bound_bypassed),
                ("truncation", prepared.truncated),
                ("repeated patterns",
                 len(prepared.masks) < prepared.enumerated)) if here}
    assert ssim or hit == {"bound bypass", "truncation", "repeated patterns"}


@pytest.mark.parametrize("method", ["twiglet", "path", "neighbor"])
def test_pruning_tables_equal_the_paper_literal_fold(cgbe, dataset,
                                                     test_config, method):
    query = dataset.random_queries(1, size=4, diameter=2,
                                   semantics=Semantics.HOM, seed=5)[0]
    build = {"twiglet": lambda: build_twiglet_tables(cgbe, query, 3),
             "path": lambda: build_path_tables(cgbe, query, 3),
             "neighbor": lambda: build_neighbor_tables(cgbe, query)}[method]
    message = message_of(cgbe, query, **{f"{method}_tables": build()})
    engine = Prilo.setup(dataset.graph_for(Semantics.HOM), test_config)
    _label, balls = engine.candidate_balls(query)
    assert len(balls) > 1
    pms, _costs, _timings, _events = compute_pms_kernel(
        Enclave(), message, balls, bf_config=BFConfig(), twiglet_h=3)
    results = getattr(pms, method)
    assert sorted(results) == sorted(ball.ball_id for ball in balls)
    for ball in balls:
        assert {method: results[ball.ball_id]} == oracle_pms(message, ball, 3)
    assert not all(result.empty for result in results.values())


#: The paper-literal fold, and the only modules under ``src/repro`` that
#: may name it (where it lives and is re-exported).
ORACLE = ("verify_plaintext", "verify_ciphertext", "verify_projected_rows",
          "verify_ball", "_pair_product", "chunked_product", "CGBE.product")
ORACLE_HOMES = {"core/verification.py", "core/ssim_verification.py",
                "core/aggregation.py", "core/__init__.py", "crypto/cgbe.py"}
#: What selected or sped up the second arithmetic path.
DELETED = ("KernelConfig", "NAIVE_KERNELS", "CiphertextPowerCache",
           "power_cache", "pad_cache", "pad_stats", "--kernels")


def test_src_calls_the_oracle_nowhere_and_the_second_path_stays_deleted():
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    oracle = re.compile(
        "|".join(rf"(?<!\w){re.escape(name)}\b" for name in ORACLE))
    offenders = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        where = path.relative_to(root).as_posix()
        offenders += [(where, name) for name in DELETED if name in text]
        if where not in ORACLE_HOMES:
            offenders += [(where, match.group())
                          for match in oracle.finditer(text)]
    assert not offenders
