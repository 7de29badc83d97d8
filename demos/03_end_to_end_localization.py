"""The full localization ladder on one synthetic dataset.

Simulates clips and a noisy window scorer, then compares four ways of
naming the state-change instant: always the clip center, always the
0.43 fraction, threshold-plus-prior selection over the scored windows,
and the oracle floor.  Selection needs both ingredients: the confidence
filter finds the right neighborhood and the prior picks among lookalike
candidates, so it lands between the static baselines and the floor.
"""

import math

from pnrkit import (
    ScorerNoiseModel,
    SelectionConfig,
    SimConfig,
    WindowingConfig,
    baseline_center,
    baseline_fraction,
    gen_dataset,
    oracle_error,
    pnr_mae,
    select_pnr,
    simulate_scores,
)


def main():
    ds = gen_dataset(SimConfig(n_clips=5_000, seed=3))
    windows = WindowingConfig(num_windows=16)
    # dict() draws each clip once; both selection rules below read every clip
    scores = dict(simulate_scores(ds, windows, ScorerNoiseModel(), seed=3))

    rows = []
    rows.append(("always center", pnr_mae(
        {c: baseline_center(ds.clips[c]) for c in ds.pnr}, ds).headline))
    rows.append(("always 0.43", pnr_mae(
        {c: baseline_fraction(ds.clips[c], 0.43) for c in ds.pnr}, ds).headline))

    for label, config in (
        ("argmax only", SelectionConfig(threshold=1.0, fallback="argmax-confidence")),
        ("filter + prior", SelectionConfig()),
    ):
        preds = {c: select_pnr(scores[c], ds.clips[c], config) for c in ds.clips}
        rows.append((label, pnr_mae(preds, ds).headline))

    rows.append(("oracle (N=16)", math.fsum(
        oracle_error(ds.pnr[c], ds.clips[c], windows) for c in ds.pnr) / len(ds.pnr)))

    print(f"{len(ds)} clips, 16 windows of 32 frames, default noise\n")
    print("method           MAE (s)")
    for label, mae in rows:
        print(f"{label:<16} {mae:.4f}")


if __name__ == "__main__":
    main()
