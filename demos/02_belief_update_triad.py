"""Three concrete stories in which learning "if A then C" moves the
listener's belief in A in three different directions: up, down, and not
at all.  The engine explains all three with one mechanism: infer the
speaker's world model pragmatically, adopt it, then condition on one's
own observation through a piece of world knowledge.
"""

from condrsa import (
    antecedent_belief,
    builtin,
    joint_event_belief,
    pragmatic_listener,
    prior_posterior,
    relation_posterior,
    utterance_surprise,
)
from condrsa import A, C


def show(name: str, conditional_text: str) -> None:
    defn = builtin(name)
    ctx = defn.to_context()
    u = defn.parse(conditional_text)
    post = pragmatic_listener(ctx, u)

    print(f"\n=== {name}: hearing {conditional_text!r} ===")
    print(f"  ({defn.antecedent_name}: {defn.antecedent_gloss}; "
          f"{defn.consequent_name}: {defn.consequent_gloss})")
    prior_belief = antecedent_belief(prior_posterior(ctx))
    print(f"  belief in {defn.antecedent_name} before: {prior_belief}")
    print(f"  after interpreting the conditional:      {antecedent_belief(post)}")
    print("  inferred world models:",
          {s.label: str(w) for s, w in zip(ctx.states, post.weights)})

    if defn.observation is not None:
        from condrsa import observation_update

        updated = observation_update(post, defn.observation)
        print(f"  plus the observation ({defn.observation.label}): {updated}")
        direction = "rises" if updated > prior_belief else "falls"
        print(f"  -> belief in {defn.antecedent_name} {direction} "
              f"({prior_belief} -> {updated})")
    else:
        print(f"  -> belief in {defn.antecedent_name} stays at {prior_belief}")


# Up: the skiing-trip evidence only matters if passing causes the trip.
show("skiing", "E -> S")

# Down: the spaded garden rules the party out, which in the dependent
# model rules passing out too.
show("garden_party", "D -> G")

# Unchanged: no extra observation; but the conditional was surprising and
# wipes out belief in the joint event.
show("sundowners", "R -> ~S")

sun = builtin("sundowners")
ctx = sun.to_context()
u = sun.parse("R -> ~S")
post = pragmatic_listener(ctx, u)
print("\nWhy the sundowners conditional feels odd:")
print(f"  expected probability of hearing it: {utterance_surprise(ctx, u)} "
      f"(= {float(utterance_surprise(ctx, u)):.3f})")
print(f"  joint event 'rain and sundowners': prior "
      f"{joint_event_belief(prior_posterior(ctx), A & C)} -> "
      f"posterior {joint_event_belief(post, A & C)}")
print("  relation beliefs after the utterance:",
      {r.value: str(m) for r, m in relation_posterior(post).items() if m > 0})
