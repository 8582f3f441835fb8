"""Byte-identity of CLI stdout.

Each digest is the SHA-256 of the stdout of one CLI run, recorded with
the one-contour-at-a-time winding engine.  A refactor that reorders a
float operation moves one of these digests.
"""

import hashlib

import pytest

from blaschke_lab.cli import main

SQUARE = '{"type":"blaschke","lambda":[1,0],"zeros":[[0,0],[0,0]]}'
CUBE = '{"type":"blaschke","lambda":[1,0],"zeros":[[0,0],[0,0],[0,0]]}'
MOBIUS = '{"type":"mobius","alpha":[0.3,0],"lambda":[0.5,0.8660254037844386]}'

GOLDEN = [
    (["verify", "theorem-a", "--seed", "1", "--cases", "3", "--targets", "5"],
     "8d6c7cab23342534690250c3b738b43f86b596f6253f64854bb854939800ad82"),
    (["verify", "theorem-b", "--seed", "1", "--cases", "5"],
     "bf425a114f8dbc4b8df64691f7e841d93f00e7f68fe77520accdba3378d58afb"),
    (["verify", "theorem-c", "--seed", "1", "--cases", "5", "--mobius-cases", "3"],
     "6ad4421648de1ba2821d4f791da7a79b3b469e399acaa2117e8c85c0b4676943"),
    (["heatmap", "--map", SQUARE, "--resolution", "16", "--radius", "0.99"],
     "9b4c4edffcca5b5377a686c3fa8f0edff2df85062a2d1726cb183857b89d7327"),
    (["valence", "--map", "atomic-inner", "--w", "0.36787944117144233",
      "--schedule", "0.9,0.99,0.999"],
     "2ec0486d10ccdf527c15d3936f9e25612434112a89a9abdea88065c6cb6d715a"),
    (["verify", "theorem-3-1", "--candidate", "atomic-inner"],
     "a2bba0a3f9758e11fd93b432bdcbc7bda4d4a3019f707ba746daf29b485ce488"),
    (["verify", "theorem-3-1", "--candidate", "slit-power"],
     "c69b38c81267c69aa88d9e4113240828d94e9734e5466a0607251f04f33ae6f9"),
    # case 358 has a refinement round that adds a single midpoint, whose
    # one-node evaluation sums in another order than a wide batch
    (["verify", "theorem-a", "--seed", "7", "--cases", "36", "--targets", "10"],
     "11170bde01cfb8c16dbefc2c12752c0d26ce6eb39c818d788465fb106c394236"),
    # r = 0.5 passes through a preimage of 0.125: the scan prints the first
    # jitter, r=0.50005
    (["valence", "--map", CUBE, "--w", "0.125"],
     "3d79dc81d6ce3a16b8506046136361395da68a8b3faa5a9136900f536d2987e8"),
    (["verify", "theorem-3-2", "--k", "2"],
     "56685372a23606df77638b16a1e5ffd3da19a94f26a2a81d04f1a147ddaa5527"),
    # k >= 3 draws its collision pair from seed + 1
    (["verify", "theorem-3-2", "--k", "3", "--seed", "5"],
     "8b0ddaa27f444156028775352c85aea5ed8680f15386076eca3c32a208c3c7bb"),
    (["verify", "hurwitz-demo"],
     "52b30685c7169c5960360d262dca879403dbb9273a40516eabf342831cf75c31"),
    (["verify", "theorem-3-1", "--candidate", MOBIUS],
     "74f5cbf565cae4dabea99405a96b35b48411742f6a326ef02432544eb504b69f"),
    # the roundtrip max_error of this seed moves in its last digit if the
    # errors' moduli are taken with np.abs instead of Python's abs
    (["verify", "theorem-3-2", "--k", "2", "--seed", "1016164991"],
     "146bc3998dd1c29e34cc12cca22d0233f4dfc37945a8d77f7faf95454ed7175c"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a[:2]) + f"-{i}"
                                                    for i, (a, _) in enumerate(GOLDEN)])
def test_stdout_digest(capsys, argv, digest):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
