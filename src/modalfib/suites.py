"""The randomized theorem suites of the table layer, one loop each.

`nine_way`: the readings of a level-0 fibration agree.  `closure`:
level-0 fibrations are closed under pullback and composition.
`compare_modalities`: flags transfer between the truncation levels.
Each returns its counts, `ok` included.  The command line and the
acceptance tests run these loops on their own inputs.
"""

from . import fingroupoids

# The library is reached as `fingroupoids.name(...)`, never through names
# bound here, so that a wrapper installed on the `fingroupoids` module
# (a tracer, a test's monkeypatch) sees every call a suite makes.

__all__ = ["seeded", "nine_way", "closure", "compare_modalities"]


def seeded(rng, samples):
    """Yield `samples` random functors drawn from `rng`, one at a time."""
    for _ in range(samples):
        yield fingroupoids.random_functor(rng)


def nine_way(pairs):
    """Run `fingroupoids.nine_way` on each (functor, rng) pair; the rng
    draws the bases its routes sample."""
    disagreements = connecting = gamma_true = gamma_false = 0
    for F, rng in pairs:
        rep = fingroupoids.nine_way(F, rng)
        disagreements += not rep["agree"]
        connecting += not rep["connecting_ok"]
        gamma_true += bool(rep["gamma_equivalence"])
        gamma_false += not rep["gamma_equivalence"]
    return {"disagreements": disagreements,
            "connecting_failures": connecting,
            "gamma_true": gamma_true, "gamma_false": gamma_false,
            "ok": disagreements == 0 and connecting == 0}


def closure(functors, rng):
    """For each level-0 fibration among `functors`, pull it back along a
    random functor into its target and compose it after the projection
    from a product with a random groupoid, both drawn from `rng`; each
    result must again be a fibration."""
    fibrations = pullback_bad = composite_bad = 0
    for F in functors:
        if not fingroupoids.classify_trunc(F, 0).fibration.is_true:
            continue
        fibrations += 1
        G = fingroupoids.random_functor_into(rng, F.target, max_objects=2,
                                             max_morphisms=8)
        _, _, p2 = fingroupoids.homotopy_pullback(F, G)
        pullback_bad += not fingroupoids.classify_trunc(
            p2, 0).fibration.is_true
        A = fingroupoids.random_groupoid(rng, max_objects=2, max_morphisms=8)
        _, fst, _ = fingroupoids.product_groupoid(F.source, A)
        composite_bad += not fingroupoids.classify_trunc(
            fst.compose(F), 0).fibration.is_true
    return {"fibrations_seen": fibrations,
            "pullback_violations": pullback_bad,
            "composite_violations": composite_bad,
            "ok": pullback_bad == 0 and composite_bad == 0}


def compare_modalities(functors):
    """Count the functors on which a level-comparison implication fails."""
    violations = sum(not fingroupoids.compare_modalities(F)["all_hold"]
                     for F in functors)
    return {"violations": violations, "ok": violations == 0}
