"""
Exporting the facet system for standalone study
===============================================

Dump the condensed operator and right-hand side as the solver prepares
them (block-scaled by default), and the coarse/fine splitting of the
finest level of the AIR hierarchy it builds, in formats any sparse
toolbox reads.
"""

import tempfile
from pathlib import Path

from scipy.io import mmread

from sthdg.experiments import ExperimentConfig, run_export

with tempfile.TemporaryDirectory(prefix="sthdg_export_") as tmp:
    outdir = Path(tmp)
    cfg = ExperimentConfig(case="pulse1d", p=1, nus=(1e-6,), ladder=((8, 8),),
                           outdir=str(outdir))
    paths = run_export(cfg)
    for p in paths:
        print("wrote", p)

    S = mmread(outdir / "system.mtx")
    H = mmread(outdir / "rhs.mtx").ravel()
    print("\nsystem:", S.shape, "nnz", S.nnz)
    print("rhs:", H.shape)

    bsize = int((outdir / "block_size.txt").read_text())
    labels = (outdir / "cf_labels.csv").read_text().splitlines()
    print("facet block size:", bsize)
    print("label header:", labels[0])
    print("first rows:")
    for line in labels[1:4]:
        print(" ", line)

    n_c = sum(line.endswith(",C") for line in labels[1:])
    print(f"coarse points: {n_c} of {S.shape[0]}")

# equivalent driver call:  sthdg export --out results/
