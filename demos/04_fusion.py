"""Fusing two scorers' window series localizes better than either alone.

Runs two simulated scorers with different window counts and noise over
the same clips, localizes from each alone, then fuses their score
series (union of window geometries, nearest-center alignment, mean
confidence) and localizes from the fused series: PNR MAE 0.5023 s and
0.5174 s for the two scorers, 0.4967 s fused.  Classification
probabilities fuse the same way, by plain averaging, and there fusion
does not help: accuracy 0.8128 and 0.7924 for the two scorers, 0.7946
fused.  `simulate_oscc` draws a call's margin the same way whether or
not the call was flipped, so its probabilities carry no confidence,
and their mean cannot beat the better scorer (ROADMAP item 5).
"""

from pnrkit import (
    ScorerNoiseModel,
    SimConfig,
    WindowingConfig,
    fuse_oscc,
    fuse_pnr,
    gen_dataset,
    oscc_accuracy,
    pnr_mae,
    select_pnr,
    simulate_oscc,
    simulate_scores,
)


def main():
    ds = gen_dataset(SimConfig(n_clips=5_000, seed=8))
    # dict() draws each clip once; fusing and selecting both read every clip
    scorer_a = dict(simulate_scores(
        ds, WindowingConfig(num_windows=32), ScorerNoiseModel(hit_alpha=7.0), seed=81
    ))
    scorer_b = dict(simulate_scores(
        ds, WindowingConfig(num_windows=16), ScorerNoiseModel(hit_beta=3.0), seed=82
    ))
    fused = {c: fuse_pnr([scorer_a[c], scorer_b[c]], ds.clips[c]) for c in ds.clips}

    print("localization MAE (s)")
    for label, scores in (("scorer A (N=32)", scorer_a), ("scorer B (N=16)", scorer_b),
                          ("fused", fused)):
        preds = {c: select_pnr(scores[c], ds.clips[c]) for c in ds.clips}
        print(f"  {label:<16} {pnr_mae(preds, ds).headline:.4f}")

    probs_a = simulate_oscc(ds, ScorerNoiseModel(oscc_flip_prob=0.2), seed=91)
    probs_b = simulate_oscc(ds, ScorerNoiseModel(oscc_flip_prob=0.2), seed=92)
    fused_probs = {c: fuse_oscc([probs_a[c], probs_b[c]]) for c in probs_a}

    print("\nclassification accuracy")
    for label, probs in (("scorer A", probs_a), ("scorer B", probs_b), ("fused", fused_probs)):
        print(f"  {label:<16} {oscc_accuracy(probs, ds).headline:.4f}")


if __name__ == "__main__":
    main()
