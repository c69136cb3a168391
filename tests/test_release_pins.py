"""Output pins of the command line that no other test holds: exact stdout
lines, the sha256 digests of whole outputs, and the exit codes of refusals.
Each command runs in process through cli.main. A pin that another test
already asserts is not repeated here:
- the verify suites at 1e-2 and 1e-3 and the gq-search digest are commands
  of the benchmark's cli pool (test_cli.py's reference test);
- the --plot-data line lies in test_cli.py's frozen --plot-data digest;
- p2p(1, 25) and the memory-cap refusal of p2p(2, 14) run under a 1 GiB
  address space in test_oracles.py, and p2p(1, 400)'s budget refusal too;
- the other refusals of the pre-release list are test_cli.py's."""

import hashlib

import pytest

from jsccbounds import cli

_ZEROS, _ONES = "0" * 100, "0" + "1" * 99

# name: (argv, exit code, and what stdout must hold: one of its lines, the
# sha256 digest of all of it, or None where only the exit code is pinned)
_PINS = {
    # below t ~ 1.1e-12 h_b_inv takes its Newton root from t / (1 - 2 log t)
    "h_b_inv-1e-300": (["eval", "--fn", "h_b_inv", "--x", "1e-300"], 0,
                       "h_b_inv,1e-300,,,1.43405612722e-303"),
    "h_b_inv-1e-13": (["eval", "--fn", "h_b_inv", "--x", "1e-13"], 0,
                      "h_b_inv,1e-13,,,2.90118956377e-15"),
    # a byte of drift anywhere on the region path changes this digest
    "region-sweep": (["bound", "region", "--rho", "1.2", "--delta1", "0.08", "--delta2", "0.05",
                      "--d1-min", "0.05", "--d1-max", "0.30", "--d1-step", "0.01"], 0,
                     "sha256:1a345639c5adc9167a2a9712c9665a1008591acb2c704c00d3e4cf710a8e0460"),
    # every d1 is infeasible (slack -inf at the d2 = 0 sweep)
    "region-infeasible": (["bound", "region", "--rho", "1.044", "--p", "0.414", "--delta1",
                           "0.183", "--delta2", "0.032", "--d1-min", "0.05", "--d1-max", "0.07",
                           "--d1-step", "0.02"], 3, None),
    # (1 - t) / t overflows at a subnormal t
    "psi-subnormal": (["eval", "--fn", "psi", "--x", "5e-324"], 3, None),
    "coupling-5000": (["oracle", "coupling", "--n", "5000", "--delta1", "3/10", "--delta2", "1/7"],
                      0, "sha256:d64fceb3863e06eda430ed97ef1999c1922f52e32984aa4d1bd3259264886c9f"),
    # e_dev has more digits than int-to-str prints, so its cell is the rounded float
    "coupling-10000": (["oracle", "coupling", "--n", "10000", "--delta1", "3/10", "--delta2",
                        "1/7"], 0, "10000,3/10,1/7,27.9208609389,37.7964473009"),
    # m = 2 scans one table per orbit of the coordinate permutations
    "p2p-2-4": (["oracle", "p2p", "--m", "2", "--n", "4", "--delta", "1/4"], 0,
                "2,4,1/4,0.203125,0000;0001;1110;1111"),
    # 2^6 51^6 ~ 1.1e12 is past the int32 sums' 2^31 / 2^n: int64 sums give this line
    "p2p-2-6": (["oracle", "p2p", "--m", "2", "--n", "6", "--delta", "49/100", "--exact"], 0,
                "2,6,49/100,242501/500000,000000;000111;111000;111111"),
    # 50388 x 2^12 scanned pairs and about 180 MiB of arrays fit the default budget and cap
    "p2p-2-12": (["oracle", "p2p", "--m", "2", "--n", "12", "--delta", "1/4", "--exact"], 0,
                 "2,12,1/4,44507/524288,000000000000;000001111111;111110000011;111111111100"),
    # m = 3 sums its trailing four free codewords once
    "p2p-3-2": (["oracle", "p2p", "--m", "3", "--n", "2", "--delta", "1/4"], 0,
                "3,2,1/4,0.333333333333,00;00;00;01;10;10;10;11"),
    "p2p-3-3": (["oracle", "p2p", "--m", "3", "--n", "3", "--delta", "1/4", "--exact"], 0,
                "3,3,1/4,1/4,000;001;010;011;100;101;110;111"),
    "frontier-3-3": (["oracle", "frontier", "--m", "3", "--n", "3", "--w1", "1", "--w2", "2"], 0,
                     "3,3,1,2,0.222222222222,0.222222222222,2/9,2/9,5713"),
    # m = 1 charges its orbits' Python-integer terms times their bits, which
    # no int64 guard bounds: P(Bin(100, 1/4) > 50) + P(Bin(100, 1/4) = 50) / 2
    "p2p-1-100": (["oracle", "p2p", "--m", "1", "--n", "100", "--delta", "1/4", "--exact"], 0,
                  "1,100,1/4,2201930480114726631510913762255698826744870336855235/"
                  "50216813883093446110686315385661331328818843555712276103168,%s;%s"
                  % (_ZEROS, _ONES)),
    # from m = 2 on, weights whose int64 sums could overflow (m 2^m 2^n max(w)
    # >= 2^62) are refused before any weight or array is made
    "p2p-2-13-overflow": (["oracle", "p2p", "--m", "2", "--n", "13", "--delta", "1/13"], 3, None),
    # an m past the budget's bit length is refused before 2^m is formed
    "p2p-m-1e20": (["oracle", "p2p", "--m", "1" + "0" * 20, "--n", "2", "--delta", "1/4"], 3,
                   None),
    # a step that leaves fewer than 3 points on an axis is a usage error
    "verify-coarse-step": (["verify", "--suite", "g-convex", "--grid-step", "0.3"], 1, None),
}


@pytest.mark.parametrize("argv,code,want", list(_PINS.values()), ids=list(_PINS))
def test_pinned_output(capsys, argv, code, want):
    got = cli.main(argv)
    out = capsys.readouterr().out
    assert got == code
    if want is None:
        return
    if want.startswith("sha256:"):
        assert hashlib.sha256(out.encode()).hexdigest() == want[len("sha256:"):]
    else:
        assert want in out.splitlines(), out
