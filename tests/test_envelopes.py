"""Golden envelopes: `tricut solve` output at fixed seeds, pinned by sha1.

Each case runs `tricut solve KIND --n N --seed S [--k K]` in process,
without --verify (so no timing enters the output), and compares the sha1
of its stdout with a recorded digest.  Cell, arc and L-line envelopes stay
byte-identical unless a change says why; wedge and segment answers may
move only when the sweep changes.  Update a digest only in a change that
states which envelopes moved and why.
"""

import contextlib
import hashlib
import io

import pytest

from tricut import cli

# (kind, n, seed, k, sha1 of stdout): six kinds at seeds 1-3, the default
# n and twice it, arcs at k in {1, n//2+1, n-1}
GOLDEN = [
    ('cell', 7, 1, None, 'b6c0cc55779499bfcd0ab8e70677ffa8a1f6e368'),
    ('cell', 14, 1, None, '929094340ff82a344dda046e5df867e3702cfeba'),
    ('cell', 7, 2, None, '8bd1f7434678d3ef796af81ac04884bf48a7c76f'),
    ('cell', 14, 2, None, '80a523114a506a884eb9fce3493a6ee25605234c'),
    ('cell', 7, 3, None, 'b70f976a9748831bc6845e8730e4f82b68847e02'),
    ('cell', 14, 3, None, '2bbe68cf98f393ef4440d173b453432bd9e8008a'),
    ('wedge111', 9, 1, None, 'b2010e5af082590bcfa7f26c70012587ac51a444'),
    ('wedge111', 18, 1, None, '45e196d818df24f71e8e99215b221185a62acd3e'),
    ('wedge111', 9, 2, None, '7d39e3d2f7c7a019aa96e16d8b3ddf7b74a34f19'),
    ('wedge111', 18, 2, None, '1d3785c3c24b332f782753d26544bd42dce188c4'),
    ('wedge111', 9, 3, None, '252908f787f8a0b997a4422b21ab568840b7f3b5'),
    ('wedge111', 18, 3, None, 'd76a3bf863910a5411cb0a62685d5c2b34c01187'),
    ('wedge', 2, 1, None, 'd926ee5097ca621923b08753666f7781e2a44707'),
    ('wedge', 4, 1, None, '24815e46c22530261b2ca81b4f1034d1539380b7'),
    ('wedge', 2, 2, None, '9f152c289e147217da0d2fa91acebab410663298'),
    ('wedge', 4, 2, None, '0f0d9d226587f1cec8c866955be378779183572b'),
    ('wedge', 2, 3, None, '1a246eaac35cdcb422567be1096902046a85bd48'),
    ('wedge', 4, 3, None, '954a01c397b08e1be6b594e21a72885e18b553e4'),
    ('segment', 2, 1, None, '4e2d77c72d2e14aea448e210fd161af6023cf38e'),
    ('segment', 4, 1, None, '05d5f6309b3b28b650863f615f003dcc812b14d1'),
    ('segment', 2, 2, None, '40fc787ca6a5d21b64f308989ac32c0c1b2f4593'),
    ('segment', 4, 2, None, '5b66ac88fafefd92fc3da6fe72fcef7f4e292f9a'),
    ('segment', 2, 3, None, '09371a333b101cac649da62e7fe1f0a6ea40a618'),
    ('segment', 4, 3, None, '51623b55cb04befc475d133b1bb73ab83b4179ec'),
    ('arcs', 5, 1, 1, '7dfd0de4a5e8b7bdf64b442c4a347b3b9f1d4710'),
    ('arcs', 5, 1, 3, '06a412ff47dbbf1fa29c23ac5eeddc6af63f7c18'),
    ('arcs', 5, 1, 4, '52d85df508614970450c0a5fffa9fb88a835b6c8'),
    ('arcs', 10, 1, 1, '805031a5816edc2d75f898745d6c16e848070e54'),
    ('arcs', 10, 1, 6, '94690585a484019178c76c96c7232736b8122bf0'),
    ('arcs', 10, 1, 9, '67932ebc80210c6c2d87c362650bce36f669d80e'),
    ('arcs', 5, 2, 1, 'a1d7429f4d4e85c1cedcbe9e0ed4de16f6d68f18'),
    ('arcs', 5, 2, 3, 'e5f58a90e76c2ef7eb9002c4bf20b63e4e8bd0cd'),
    ('arcs', 5, 2, 4, '3d5a13db8a2584f8f6f94c7a2b69df5dd23c8c13'),
    ('arcs', 10, 2, 1, '7e11904244c59f39754b4628a42763d2183fadfe'),
    ('arcs', 10, 2, 6, '428a2665f2a00d7bb9a8abe8f9020c958022039e'),
    ('arcs', 10, 2, 9, '0ac5c6ce6bc78eb28d2d7f930d2625ee7a867e2f'),
    ('arcs', 5, 3, 1, '9155a3a03a4c0cb6a1ced999048f0584780725e4'),
    ('arcs', 5, 3, 3, '20f38160222d2435464b5dd70e8e974e81d9974f'),
    ('arcs', 5, 3, 4, 'b6ef4061fa6a684bda50da7e586e70ad57289d32'),
    ('arcs', 10, 3, 1, '487d94e28a77818800492e667b46c66ecee8f56b'),
    ('arcs', 10, 3, 6, '42d03cd624bf3b363be4bc6aee167352b4d090f3'),
    ('arcs', 10, 3, 9, '001460686b7f9d179a3658e07f62723b75628a63'),
    ('lline', 4, 1, None, 'c4e8e2b052848a4795239915f2bfece197de9d39'),
    ('lline', 8, 1, None, '220a69ab8069d23ca79881a9b410825d70977caf'),
    ('lline', 4, 2, None, 'd1c60eff01e228511876aa0dfa55ee9ed9be9d41'),
    ('lline', 8, 2, None, '05da1c6123a31f322e7c43fdf7edc1aa587208e8'),
    ('lline', 4, 3, None, '933666937554d9f4a78fb049605715a963b369a7'),
    ('lline', 8, 3, None, '693f757287733e8d09b484f523cc487c000b35a3'),
]


@pytest.mark.parametrize(
    "kind,n,seed,k,digest",
    GOLDEN,
    ids=[f"{c[0]}-n{c[1]}-s{c[2]}" + (f"-k{c[3]}" if c[3] else "") for c in GOLDEN],
)
def test_envelope_digest(kind, n, seed, k, digest):
    argv = ["solve", kind, "--n", str(n), "--seed", str(seed)]
    if k is not None:
        argv += ["--k", str(k)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(argv) == 0
    assert hashlib.sha1(buf.getvalue().encode()).hexdigest() == digest


def test_golden_covers_every_kind():
    assert {c[0] for c in GOLDEN} == set(cli.SOLVE_KINDS)
    assert len(GOLDEN) == 48
