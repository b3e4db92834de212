"""Survey the "out of the blue" context: 10,000 world states sampled from
an unbiased prior over causal structures and probability tables, and the
aggregate regularities that fall out of purely informativity-driven
utterance choice.

Runs in a couple of seconds; every number is reproducible from the seed.
"""

import numpy as np

from condrsa import (
    Argmax,
    CausalStructure,
    UtteranceType,
    best_utterance_frequencies,
    build_default_context,
    cp_comparison,
    default_context_checks,
    delta_p_cohorts,
    expected_choice_probabilities,
    relation_beliefs,
)

SEED = 1
ctx = build_default_context(seed=SEED)  # 10,000 states, alpha=3, theta=0.9
print(f"sampled {ctx.n_states} states (seed {SEED}), "
      f"{len(ctx.utterances)} utterance alternatives\n")

# -- who says what, when ---------------------------------------------------
print("Best utterance type by speaker certainty (hyperrational speaker):")
for (cell, group), freq in best_utterance_frequencies(ctx).items():
    top = max(freq.frequencies.items(), key=lambda kv: kv[1])
    print(f"  {cell.value:15s} x {group:11s} (n={freq.count:4d}): "
          f"{top[0].value} {top[1]:.3f}")

# -- what a conditional teaches about structure -----------------------------
beliefs = relation_beliefs(ctx)
pos = (CausalStructure.AC_POS, CausalStructure.CA_POS)
print("\nBelief in a positive dependency after hearing 'A -> C':")
for stage in ("prior", "literal", "pragmatic"):
    mass = sum(beliefs[stage][r] for r in pos)
    print(f"  {stage:9s}: {mass:.3f}")

# -- biconditional strengthening -------------------------------------------
cp = cp_comparison(ctx)
print("\nBiconditional-reading metrics E[P(~c|~a)], E[P(a|c)]:")
for stage in ("prior", "literal", "pragmatic"):
    m = cp[stage]
    print(f"  {stage:9s}: {float(m.not_c_given_not_a):.3f}, {float(m.a_given_c):.3f}")

# -- normalized contingency -------------------------------------------------
cohorts = delta_p_cohorts(ctx)
print("\nNormalized contingency of 'A -> C' by cohort:")
for cohort in (cohorts.prior, cohorts.assertable, cohorts.best_choice):
    values = cohort.values
    print(f"  {cohort.name:11s} (n={len(values):5d}): median {np.median(values):7.3f}, "
          f"mean {np.mean(values):9.3f}, share below 0.5 {np.mean(values < 0.5):.3%}")

# -- missing links ------------------------------------------------------------
soft = expected_choice_probabilities(ctx)
hard = expected_choice_probabilities(ctx, Argmax())
indep = CausalStructure.INDEPENDENT.value
print("\nExpected conditional-utterance mass when the variables are independent:")
print(f"  soft speaker (alpha=3): {soft[indep][UtteranceType.CONDITIONAL]:.4f}")
print(f"  hyperrational speaker:  {hard[indep][UtteranceType.CONDITIONAL]:.4f}")
print("  (speakers nearly never pick a conditional for independent variables,")
print("   which is why such conditionals sound like missing links)")

# -- the reference check suite ------------------------------------------------
print("\nTolerance-manifest checks and their margins (< 0 fails; 0 holds only if inclusive):")
for check in default_context_checks(ctx):
    print(f"  [{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.observed} "
          f"(margin {check.margin:+.4g})")
