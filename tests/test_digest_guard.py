"""A fast guard on the case encoder and the suites' verdicts.

``run_suite(name, 4, seed)`` for every suite at seeds 1 and 2 must give the
pinned ``instances_digest`` (the sha256 of each case's canonical JSON, so any
drift in how a payload is built or encoded moves it) and the pinned lemma
tallies, as (pass, fail, not_applicable, indeterminate).  The whole table
runs in well under a second.

What ``linrel chains`` computes on two deep pairs (the chain report, the
equivalent conditions for n = 1..x and the nu-duality check, in canonical
JSON) must give its pinned sha256: drift in any chain dimension,
containment verdict or flag moves it.
"""

import hashlib

import pytest

from linrel import chains as chn
from linrel import serialize as ser
from linrel import suites as sts

from test_chains import _deep_pair

PINNED = {
    ("algebra", 1): (
        "7066e162632f816358c981210b037f02cb973cc70fc9fe1f54f67ff9846b5adc",
        {
            "adjoint_of_sum": (3, 0, 1, 0),
            "affine_fiber": (7, 0, 1, 0),
            "difference_lemma": (2, 0, 2, 0),
            "difference_lemma_witness": (2, 0, 0, 0),
            "double_adjoint": (8, 0, 0, 0),
            "double_inverse": (8, 0, 0, 0),
            "fiber_dimension": (8, 0, 0, 0),
            "image_additive": (8, 0, 0, 0),
            "inverse_swaps": (8, 0, 0, 0),
            "scalar_adjoint": (8, 0, 0, 0),
            "sum_domain": (4, 0, 0, 0),
            "sum_multivalued": (4, 0, 0, 0),
            "sum_with_negation": (4, 0, 0, 0),
            "t_tinv_identity": (8, 0, 0, 0),
            "tinv_t_identity": (8, 0, 0, 0),
        },
    ),
    ("duality", 1): (
        "7066e162632f816358c981210b037f02cb973cc70fc9fe1f54f67ff9846b5adc",
        {
            "alpha_adjoint_equals_beta": (8, 0, 0, 0),
            "gamma_adjoint_invariant": (8, 0, 0, 0),
            "norm_adjoint_invariant": (8, 0, 0, 0),
            "null_space_a": (8, 0, 0, 0),
            "null_space_b": (8, 0, 0, 0),
            "null_space_c": (8, 0, 0, 0),
            "null_space_d": (8, 0, 0, 0),
        },
    ),
    ("gap", 1): (
        "96932a56da538d25090fa0c55a46ed74d328a5321e8adee3b30a6e458c707128",
        {
            "annihilator_dimension": (4, 0, 0, 0),
            "biduality": (4, 0, 0, 0),
            "complement_involution": (4, 0, 0, 0),
            "dimension_formula": (4, 0, 0, 0),
            "gap_asymmetry": (4, 0, 0, 0),
            "gap_dimension": (4, 0, 0, 0),
            "gap_range": (4, 0, 0, 0),
            "gap_self": (4, 0, 0, 0),
            "gap_zero_iff_contained": (4, 0, 0, 0),
            "oracle_agreement": (2, 0, 2, 0),
            "projector": (4, 0, 0, 0),
        },
    ),
    ("chains", 1): (
        "9875b4398a906bdc18eac87aea72a045c3aa9eca0924ecbdf43e0ee9643a1211",
        {
            "adjoint_sequences": (3, 0, 0, 0),
            "equivalent_conditions": (4, 0, 0, 0),
            "m_chain_monotone": (4, 0, 0, 0),
            "n1_is_kernel": (4, 0, 0, 0),
            "n_chain_monotone": (4, 0, 0, 0),
            "nu_duality": (0, 0, 1, 0),
            "nu_duality_equality_m": (3, 0, 0, 0),
            "nu_duality_equality_nu": (3, 0, 0, 0),
            "nu_sufficient_condition": (2, 0, 2, 0),
            "sandwich": (4, 0, 0, 0),
            "stabilization_bound": (4, 0, 0, 0),
        },
    ),
    ("perturbation", 1): (
        "755f22e7cb8c07e104bc4b1c500052c02127cfc81219ca6c8c3b4996655def10",
        {
            "alpha_prime_monotone": (7, 0, 0, 0),
            "gamma_inverse_identity": (7, 0, 0, 0),
            "norm_difference": (3, 0, 1, 0),
            "norm_upper_bound": (7, 0, 1, 0),
            "perturbation_inequalities": (4, 0, 0, 0),
            "quot_injective": (7, 0, 1, 0),
        },
    ),
    ("stability", 1): (
        "14ba30c53e5d1222ce00122dcb1b15623c8dd0a11dc230a4804d4fd391178d76",
        {
            "degenerate_dichotomy": (4, 0, 0, 0),
            "eigen_kernel_consistency": (3, 0, 1, 0),
            "gap_bound": (4, 0, 0, 0),
            "radii_ordering": (4, 0, 0, 0),
            "stability_alpha_beta": (4, 0, 0, 0),
            "stability_alpha_one_sided": (4, 0, 0, 0),
            "stability_gamma_floor": (4, 0, 0, 0),
        },
    ),
    ("algebra", 2): (
        "c27045bd59973cc8d88f0cf92f95a56950d6e6d7ebd54780ad5ec1e0aa86632b",
        {
            "adjoint_of_sum": (4, 0, 0, 0),
            "affine_fiber": (7, 0, 1, 0),
            "difference_lemma": (1, 0, 3, 0),
            "difference_lemma_witness": (1, 0, 0, 0),
            "double_adjoint": (8, 0, 0, 0),
            "double_inverse": (8, 0, 0, 0),
            "fiber_dimension": (8, 0, 0, 0),
            "image_additive": (8, 0, 0, 0),
            "inverse_swaps": (8, 0, 0, 0),
            "scalar_adjoint": (8, 0, 0, 0),
            "sum_domain": (4, 0, 0, 0),
            "sum_multivalued": (4, 0, 0, 0),
            "sum_with_negation": (4, 0, 0, 0),
            "t_tinv_identity": (8, 0, 0, 0),
            "tinv_t_identity": (8, 0, 0, 0),
        },
    ),
    ("duality", 2): (
        "c27045bd59973cc8d88f0cf92f95a56950d6e6d7ebd54780ad5ec1e0aa86632b",
        {
            "alpha_adjoint_equals_beta": (8, 0, 0, 0),
            "gamma_adjoint_invariant": (8, 0, 0, 0),
            "norm_adjoint_invariant": (8, 0, 0, 0),
            "null_space_a": (8, 0, 0, 0),
            "null_space_b": (8, 0, 0, 0),
            "null_space_c": (8, 0, 0, 0),
            "null_space_d": (8, 0, 0, 0),
        },
    ),
    ("gap", 2): (
        "c3d69a93117c080861fcddb9bb907dd55c667b56cc061b4f5b00b4856aa9529b",
        {
            "annihilator_dimension": (4, 0, 0, 0),
            "biduality": (4, 0, 0, 0),
            "complement_involution": (4, 0, 0, 0),
            "dimension_formula": (4, 0, 0, 0),
            "gap_dimension": (0, 0, 4, 0),
            "gap_range": (4, 0, 0, 0),
            "gap_self": (4, 0, 0, 0),
            "gap_zero_iff_contained": (4, 0, 0, 0),
            "oracle_agreement": (2, 0, 2, 0),
            "projector": (4, 0, 0, 0),
        },
    ),
    ("chains", 2): (
        "bc9b712936c298df63e2a396a7f0c8809c34628d0eb13ee047dd25f459fded13",
        {
            "adjoint_sequences": (3, 0, 0, 0),
            "equivalent_conditions": (4, 0, 0, 0),
            "m_chain_monotone": (4, 0, 0, 0),
            "n1_is_kernel": (4, 0, 0, 0),
            "n_chain_monotone": (4, 0, 0, 0),
            "nu_duality": (0, 0, 1, 0),
            "nu_duality_equality_m": (3, 0, 0, 0),
            "nu_duality_equality_nu": (3, 0, 0, 0),
            "nu_sufficient_condition": (1, 0, 3, 0),
            "sandwich": (4, 0, 0, 0),
            "stabilization_bound": (4, 0, 0, 0),
        },
    ),
    ("perturbation", 2): (
        "b49e8321ebe3b7603fa62567a4a99ebbdfea631b7894b54d6bf8ec15deaea3a4",
        {
            "alpha_prime_monotone": (6, 0, 0, 0),
            "gamma_inverse_identity": (6, 0, 0, 0),
            "norm_difference": (3, 0, 1, 0),
            "norm_upper_bound": (7, 0, 1, 0),
            "perturbation_inequalities": (4, 0, 0, 0),
            "quot_injective": (6, 0, 2, 0),
        },
    ),
    ("stability", 2): (
        "25b2a02a09ce6bda2c1cc0885bab7d65a6c3fe7e01eeaf134a245eb641e7d94b",
        {
            "degenerate_dichotomy": (4, 0, 0, 0),
            "eigen_kernel_consistency": (3, 0, 1, 0),
            "gap_bound": (4, 0, 0, 0),
            "radii_ordering": (4, 0, 0, 0),
            "stability_alpha_beta": (4, 0, 0, 0),
            "stability_alpha_one_sided": (4, 0, 0, 0),
            "stability_gamma_floor": (4, 0, 0, 0),
        },
    ),
}


@pytest.mark.parametrize("name,seed", sorted(PINNED))
def test_suite_digest_and_tallies_are_pinned(name, seed):
    r = sts.run_suite(name, 4, seed)
    digest, tallies = PINNED[name, seed]
    assert r.instances_digest == digest
    assert {k: (v["pass"], v["fail"], v["not_applicable"], v["indeterminate"])
            for k, v in r.lemmas.items()} == tallies


def test_pinned_table_covers_every_suite():
    assert {name for name, _ in PINNED} == set(sts.SUITE_NAMES)


CHAIN_PINNED = {
    (16, 8, 1): "cec9028aaef9b42bd9290a3b91ef497ea39f821ee26e32708803a2da0cccaa42",
    (24, 12, 2): "d8ad5dae074f70069b0cb56cb4fcc155ed7b233f2e3cfae4ed7fd8f81ce1388b",
}


@pytest.mark.parametrize("x,depth,seed", sorted(CHAIN_PINNED))
def test_chains_output_is_pinned(x, depth, seed):
    a, b = _deep_pair(x, depth, seed)
    doc = chn.chain_report(a, b).to_dict()
    doc["equivalent_conditions"] = [chn.check_equivalent_conditions(a, b, n)
                                    for n in range(1, x + 1)]
    doc["nu_duality"] = chn.verify_nu_duality(a, b)
    assert not doc["ill_conditioned"] and doc["nu"] == depth
    text = ser.canonical_json(doc)
    assert hashlib.sha256(text.encode()).hexdigest() == CHAIN_PINNED[x, depth, seed]
