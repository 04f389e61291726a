"""Byte-identity gate: command outputs pinned by SHA-256.

The digests were taken from the implementation that kept tables as
``dict[State, float]``.  Any change to a value, to its float repr or to the
order of rows shows up as a changed digest.  Each digest covers every file
one run writes: the sorted file names and their bytes.
"""
import hashlib

import numpy as np

import clearq.cli as cli
from clearq.experiments import EXAMPLE_PARAMS, SweepSpec, sweep, table4_params
from clearq.policies import decision_grid, pi_prime
from clearq.thresholds import (
    classify,
    compute_actual_profile,
    condition1,
    heuristic_profile,
    search_caps,
)

PRESETS = sorted(EXAMPLE_PARAMS)

SMALL_SWEEP = SweepSpec(
    server_configs=((2, 1), (3, 2)),
    h0_values=(0.1, 1.0),
    h2_values=(0.1, 2.0),
    mu2_values=(4.0, 12.0),
    i0_values=(20, 30),
)


def _digest(outdir) -> str:
    sha = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        sha.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return sha.hexdigest()


def produce(workdir) -> dict[str, str]:
    """Run every pinned command under workdir; run name -> digest."""
    runs = {}
    for preset in PRESETS:
        runs[f"solve-{preset}"] = [["solve", "--preset", preset, "--imax", "40", "--outdir"]]
        runs[f"thresholds-{preset}"] = [["thresholds", "--preset", preset, "--outdir"]]
        runs[f"curve-{preset}"] = [
            ["curve", "--preset", preset, "--k", "2", "--imax", "30", "--out", "k2.csv"],
            ["curve", "--preset", preset, "--l", "0", "--imax", "30", "--out", "l0.csv"],
        ]
    for policy in ("optimal", "heuristic", "pi4"):
        runs[f"simulate-{policy}"] = [
            ["simulate", "--preset", "ex1", "--policy", policy, "--i0", "12",
             "--reps", "3000", "--seed", "7", "--out", "sim.json"]
        ]
    digests = {}
    for name, commands in runs.items():
        outdir = workdir / name
        outdir.mkdir()
        for argv in commands:
            if argv[-1] == "--outdir":
                argv = argv + [str(outdir)]
            else:
                argv = argv[:-1] + [str(outdir / argv[-1])]
            assert cli.main(argv) == 0, argv
        digests[name] = _digest(outdir)
    outdir = workdir / "sweep-raw"
    outdir.mkdir()
    sweep(SMALL_SWEEP).write_raw_csv(outdir / "sweep_raw.csv")
    digests["sweep-raw"] = _digest(outdir)
    return digests


PINNED = {
    "solve-ex1": "3f15ac019cd4fd353a2feb1a533205af3951366acfc91fbb0251066fe958d3c3",
    "thresholds-ex1": "4087c54b7c38a675e6c943595d7f05513211fcfa69c14f7d92e0f69de1b5ad87",
    "curve-ex1": "7d7bf7743ab1b6360c7a531b185d5e6e5f8a7fc5363e27587d515ee466c9c825",
    "solve-ex2": "b1cd5129fba1e574a0c5511df138852f9ebe5a2670cd674b1e0891652ec0f807",
    "thresholds-ex2": "69ba43fc60748a6a441ebdb83fb1ff8b2b8dae2a71b42cf300767db99b5e04e4",
    "curve-ex2": "41cd86d8930ead6e99b231d31776dff367e5955a650254a591829a1a56a0fbb0",
    "solve-ex3": "fc4febc9219e745cca24c8878505e5ef64e3ae9000deda4d570b8d0a90cf25ef",
    "thresholds-ex3": "7857284b5f42e31ac9cac069db68715a5d24f7f5ab9170456fa4267e844ff372",
    "curve-ex3": "1be6b0aff50fa9aadc5a08646170cbc05ebde44517683e3332dd1908f782e1ee",
    "solve-ex3b": "a83b2ccee8758f2def69a62f327289592d65253fd1e111085e540887f012bd78",
    "thresholds-ex3b": "40fefb42b439b49fe74affa94dc2f2cf7bfd900fd26ed1683fa4c127964f2ca1",
    "curve-ex3b": "685ce2d7a75fa329b53f8bbe1895058401418f513aa1a75585496b2ef3caaa33",
    "solve-ex4": "d4ad93c7ae89538c7825aee2084c36fe9267d267837abb507f79e43383186bb3",
    "thresholds-ex4": "1b5139b9f85838b9b6bd0c5f04e5c1e04c68f39dd02557b360d84cb7294840ea",
    "curve-ex4": "f315a4770d92f88d20498e7275a5659c3a1d67475b5fdd5b3a4b46aafd65d553",
    "solve-ex4b": "c8e30fd25a703d2c123062eb52e1fd6f3db623bbfaeff99149d0e407bd18a90b",
    "thresholds-ex4b": "9633fd35f7773cf09d0706299e455fc5c285699a964ed44b8f9356ba14de7c75",
    "curve-ex4b": "e0f1725d0cc472ebf341bd30debbedddcac9ef4bcd2a6d532a451cb93a7ff044",
    "solve-ex5": "e719ca3f5ca670f84332dfe3f7c6ab8b8a473f73321aa72ab4f8a44990f616f6",
    "thresholds-ex5": "d27f18adee5177dfc7a2fd6e966873c67f95d8256333961bf303cb3a7b895633",
    "curve-ex5": "e1b88d080520068f02a9698ca9286cab98aefb30c4f5083ab1c3b38f8f762827",
    "solve-ex6": "c7ad3c0f6530f7b45700331c8f2514daa4d93d4a08fab6108b19c6acda7c33fc",
    "thresholds-ex6": "418bf345a5c9575919452f2d457624ed6d744e7784f3f4041e7650913460cec2",
    "curve-ex6": "f758235a7c3ce4665192d2954af01f65c28dd4da63f32ab6b02a858790bbfbcb",
    "solve-ex7": "90beb176d6234b9433f982e1abe287d955ac327fcb79fe15d09c6aab25b8d75b",
    "thresholds-ex7": "9a98a59f64e5afdbb1c58045d0cf8c225bbda6d966559c3626506ecffe701407",
    "curve-ex7": "27454c7c7c2c860da7bc511010ea1f5910574a21ba3f2d7cd7cb30d06b8c0971",
    "solve-ex8": "f0542e593b216caa709faad7217a8d1076cc70df889f086ad922ffb622fa14f1",
    "thresholds-ex8": "01839cd36e21f68823bd9d89089ee3c3b3e526b21cab2f41f62c31d54aa47f3c",
    "curve-ex8": "bb0740dd5d817062974434cc1563187f4d4ee7b1b1239f14e7fbc625b61c408c",
    "simulate-optimal": "066b83372fbe168e2743b771fcbe0cf09eabf07c346aeee225ed6803ab8f6b73",
    "simulate-heuristic": "d102270b16690a964068f7a230d1fd507863cb07fb1c1b9b4a06b67ec7835f3d",
    "simulate-pi4": "3ac1343074a1af3037501acd3bfc7766f1dfda777abd00ec838de76a08ec3445",
    "sweep-raw": "c4552b980edf9dda7f28393f7b4985a560431ec5722e48f1016165b288ab00bf",
}


def test_outputs_byte_identical(tmp_path, capsys):
    assert produce(tmp_path) == PINNED


def threshold_grid_lines():
    """One text line per threshold-machinery output on every study-grid point.

    Per point: the heuristic and actual profiles (orientation, entries, solve
    depth), ``classify`` and ``condition1`` at every index, ``search_caps``,
    and the heuristic policy's decisions on the (q, k_busy) grid to depth 40.
    """
    for params in table4_params():
        heur = heuristic_profile(params)
        act = compute_actual_profile(params)
        yield f"{params!r}"
        yield f"heuristic {heur.orientation.value} {sorted(heur.entries.items())!r}"
        yield f"actual {act.orientation.value} {sorted(act.entries.items())!r} {act.i_max_used}"
        for index in heur.indices():
            yield f"index {index} {classify(params, index).value} {condition1(params, index).value}"
        yield f"caps {sorted(search_caps(params).items())!r}"
        collab = decision_grid(pi_prime(params).rule, params.C1, 40)
        # The action after a Station 1 and after a Station 2 completion leaves
        # (q, k, C1 - k), by k = 0..C1; a column with no such completion is False.
        after1, after2 = (np.pad(collab, ((0, 0), pad)) for pad in ((1, 0), (0, 1)))
        yield f"pi_prime {after1.tobytes().hex()} {after2.tobytes().hex()}"


PINNED_THRESHOLD_GRID = "212431d3a148de7c729edb7692eac2d1ce2e9cdd9d916c8018d32ea409f362d8"


def test_threshold_grid_byte_identical():
    """Threshold outputs over the whole study grid, pinned by SHA-256.

    The digest was taken from the code before the orientation dispatch moved
    into one per-index spec (``thresholds.threshold_spec``), with no source
    change applied: each index's column, classification and sign rule were
    then worked out separately in every function.
    """
    sha = hashlib.sha256()
    for line in threshold_grid_lines():
        sha.update(line.encode() + b"\n")
    assert sha.hexdigest() == PINNED_THRESHOLD_GRID
