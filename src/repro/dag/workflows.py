"""Scientific-workflow graph shapes (Pegasus benchmark suite, simplified).

Scheduling evaluations routinely use the structural skeletons of real
Pegasus workflows — Montage (astronomy mosaics), CyberShake (seismic
hazard), Epigenomics (genome sequencing) and LIGO Inspiral (gravitational
waves).  These generators reproduce the published shapes (fan-out widths,
aggregation points, pipeline depths) parameterized by the degree of
parallelism; node ids are ``(stage_name, *indices)`` tuples.

References: Juve et al., "Characterizing and profiling scientific
workflows", FGCS 2013 (the canonical shape descriptions).
"""

from __future__ import annotations

from repro.dag.graph import DAG

__all__ = ["montage_dag", "cybershake_dag", "epigenomics_dag", "ligo_dag"]


def montage_dag(n: int) -> DAG:
    """Montage mosaic workflow with ``n`` input images.

    Shape: ``n`` `mProject` jobs; `mDiffFit` jobs on overlapping image pairs
    (here: consecutive pairs); a single `mConcatFit` → `mBgModel` chain;
    ``n`` parallel `mBackground` jobs; then the `mImgtbl` → `mAdd` →
    `mShrink` → `mJPEG` aggregation chain.
    """
    if n < 2:
        raise ValueError("montage needs n >= 2 input images")
    edges = []
    for i in range(n - 1):
        diff = ("mDiffFit", i)
        edges += [(("mProject", i), diff), (("mProject", i + 1), diff),
                  (diff, ("mConcatFit", 0))]
    edges.append((("mConcatFit", 0), ("mBgModel", 0)))
    for i in range(n):
        bg = ("mBackground", i)
        edges += [(("mBgModel", 0), bg), (("mProject", i), bg), (bg, ("mImgtbl", 0))]
    edges += [(("mImgtbl", 0), ("mAdd", 0)), (("mAdd", 0), ("mShrink", 0)),
              (("mShrink", 0), ("mJPEG", 0))]
    return DAG([("mProject", i) for i in range(n)], edges)


def cybershake_dag(n: int) -> DAG:
    """CyberShake seismic-hazard workflow with ``n`` rupture variations.

    Shape: two `ExtractSGT` roots feeding ``n`` `SeismogramSynthesis` jobs,
    each followed by a `PeakValCalc`; two zip aggregators collect the two
    result families.
    """
    if n < 1:
        raise ValueError("cybershake needs n >= 1 variations")
    edges = []
    for i in range(n):
        synth = ("SeismogramSynthesis", i)
        peak = ("PeakValCalc", i)
        edges += [(("ExtractSGT", i % 2), synth), (synth, peak),
                  (synth, ("ZipSeis", 0)), (peak, ("ZipPSA", 0))]
    return DAG([("ExtractSGT", 0), ("ExtractSGT", 1)], edges)


def epigenomics_dag(lanes: int, width: int) -> DAG:
    """Epigenomics sequencing workflow: ``lanes`` parallel pipelines of
    ``width`` chunk-streams each, merging per lane and then globally.

    Per lane: `fastqSplit` fans into ``width`` chains
    `filterContams` → `sol2sanger` → `fastq2bfq` → `map`, merged by
    `mapMerge`; lane merges feed the global `mapMergeGlobal` →
    `maqIndex` → `pileup` chain.
    """
    if lanes < 1 or width < 1:
        raise ValueError("epigenomics needs lanes >= 1 and width >= 1")
    edges = []
    for l in range(lanes):
        merge = ("mapMerge", l)
        for w in range(width):
            chain = [("fastqSplit", l)]
            chain += [(stage, l, w) for stage in
                      ("filterContams", "sol2sanger", "fastq2bfq", "map")]
            chain.append(merge)
            edges += zip(chain, chain[1:])
        edges.append((merge, ("mapMergeGlobal", 0)))
    edges += [(("mapMergeGlobal", 0), ("maqIndex", 0)), (("maqIndex", 0), ("pileup", 0))]
    return DAG(edges=edges)


def ligo_dag(n: int, group: int = 3) -> DAG:
    """LIGO Inspiral gravitational-wave workflow with ``n`` data segments.

    Shape: per segment a `TmpltBank` → `Inspiral` chain; inspirals aggregate
    in groups of ``group`` into `Thinca` jobs; each Thinca fans back out to
    its group's `TrigBank` → `Inspiral2` chains, collected by second-level
    `Thinca2` jobs.
    """
    if n < 1 or group < 1:
        raise ValueError("ligo needs n >= 1 and group >= 1")
    edges = []
    for i in range(n):
        edges += [(("TmpltBank", i), ("Inspiral", i)),
                  (("Inspiral", i), ("Thinca", i // group))]
    for i in range(n):
        gid = i // group
        edges += [(("Thinca", gid), ("TrigBank", i)), (("TrigBank", i), ("Inspiral2", i)),
                  (("Inspiral2", i), ("Thinca2", gid))]
    return DAG(edges=edges)
