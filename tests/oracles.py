"""Frozen high-precision reference values for the test suite.

Every number below was computed with mpmath at 40-50 significant digits,
by definitions independent of the package under test:

* M values as struvel(nu, x) - besseli(nu, x) (mpmath's own series).
* calM values as -2^nu gamma(nu+1/2) x^(-nu) M_nu(x).
* Derivatives by mpmath's numerical differentiation of those forms; the
  FX31 slope differentiates x M_nu'/M_nu with M_nu' = M_{nu-1} - (nu/x) M_nu.
* The cross-term double integral D from the corrected relation
  (nu + 1/2) cross = (nu - 1/2) D - 2 I_nu L_nu over mpmath's besseli and
  struvel at 60 + x/2.3 digits (checked against 40 more), at the decimal
  keys; DOUBLE_INTEGRAL_BAR_MISSES at the binary floats of its keys.
* The Fox-Wright values by direct nsum of
  sum_n gamma(1/2 + n/2) / gamma(nu + 1 + n/2) * z^n / n!.
* Gamma-function helpers straight from mpmath.

Rerun `python3 -m oracles` (or this file) from the tests directory to
regenerate and diff; values are frozen so that test failures always
point at the package, never at a drifting reference.
"""

# M_nu(x), 22 significant digits
M_TABLE = {
    (-0.45, 0.01): -6.651533208251100967564,
    (-0.45, 1.0): -0.3378585711486797231671,
    (-0.45, 6.0): -0.007106308943611747020935,
    (-0.25, 0.5): -0.7969968926600240441579,
    (0.0, 1.0): -0.5558226918141174468597,
    (0.0, 10.0): -0.06437909165961592147715,
    (0.5, 1.0): -0.5043592344553855560913,
    (1.0, 1.0): -0.3383947229366763903815,
    (1.0, 0.1): -0.04793904502432829724472,
    (2.0, 3.0): -0.4975551131936728802697,
    (5.0, 6.0): -0.7296760129019521042685,
    (5.0, 25.0): -259.4860105735903824289,
    (8.0, 20.0): -388.2245663831666422267,
    (12.5, 2.0): -4.393702346777818116232e-10,
}

# calM_nu(x) = -2^nu gamma(nu+1/2) x^(-nu) M_nu(x)
CALM_TABLE = {
    (-0.45, 0.01): 11.93510159162383092408,
    (-0.45, 1.0): 4.815476828649850964253,
    (-0.45, 6.0): 0.2268383624262675410587,
    (-0.25, 0.5): 2.04325563530971662688,
    (0.0, 1.0): 0.9851700705266023088124,
    (0.0, 10.0): 0.1141089689298854288642,
    (0.5, 1.0): 0.7132716696749178705559,
    (1.0, 1.0): 0.5997890297952172195081,
    (1.0, 0.1): 0.8496974496210360771825,
    (2.0, 3.0): 0.2939644921392851405786,
    (5.0, 6.0): 0.1571739481401065282814,
    (5.0, 25.0): 0.04450621387457739656427,
    (8.0, 20.0): 0.05448501685957349202565,
    (12.5, 2.0): 0.2104590454030329722184,
}

# d/dx M_nu(x)
MPRIME_TABLE = {
    (0.75, 0.5): -0.3336248508722584348697,
    (1.0, 1.0): -0.2174279688774410564782,
    (2.0, 3.0): -0.2250538611320514785474,
    (5.0, 6.0): -0.5193238218993095943929,
    (1.5, 12.0): -0.05998001633844776306783,
}

# (nu, x) -> d/dx [x M_nu'(x) / M_nu(x)], the slope FX31 bounds by x/(nu+1/2)
FX31_SLOPE_TABLE = {
    (0.51, 30.0): -0.000003045586684002824348121,
    (0.6, 0.001): -0.481558048239772751123,
    (2.5, 0.7): -0.2532644891700140211182,
    (5.0, 8.0): -0.0322205137839797444877,
    (20.0, 0.001): -0.1238342715514855353246,
    (12.0, 1e-05): -0.157989245837761709675,
}

# (nu, x, n) -> d^n/dx^n calM_nu(x)
CALM_DX_TABLE = {
    (0.0, 1.0, 1): -0.528590137300295354388,
    (0.0, 1.0, 2): 0.3853810407313850893043,
    (1.0, 2.0, 3): -0.03675905145961702161259,
    (2.0, 0.5, 4): 0.02951318784664866358313,
    (-0.3, 1.0, 2): 1.005434293147154441535,
    (5.0, 10.0, 6): 0.00001309093758261728000753,
}

# (nu, x, m) -> d^m/dnu^m calM_nu(x)
CALM_DNU_TABLE = {
    (0.0, 1.0, 1): -0.9901757145963442809665,
    (1.0, 2.0, 2): 0.07244602473541193472675,
    (2.0, 0.5, 3): -0.06811147535335491892267,
    (0.25, 5.0, 1): -0.02558160047901970517739,
    (3.0, 1.0, 4): 0.01369502857710120776601,
}

# I_nu(x)
BESSEL_I_TABLE = {
    (0.0, 1.0): 1.266065877752008335598,
    (1.0, 1.0): 0.5651591039924850272077,
    (2.0, 1.0): 0.1357476697670382811829,
    (0.5, 2.0): 2.046236863089055036605,
    (2.5, 3.0): 1.515339446681965137741,
    (7.0, 20.0): 12562873.68617884956605,
    (-0.5, 1.0): 1.231200214592967446506,
    (-0.9, 0.3): 0.7114284729832209940719,
}

# L_nu(x)
STRUVE_L_TABLE = {
    (0.0, 1.0): 0.7102431859378908887385,
    (1.0, 1.0): 0.2267643810558086368262,
    (2.0, 1.0): 0.044507833037079834061,
    (0.5, 2.0): 1.558402036629880906868,
    (2.5, 3.0): 1.127389360527696330059,
    (7.0, 20.0): 12562581.25416671703927,
    (-0.5, 1.0): 0.9376748882454876467173,
    (-1.4, 0.3): 0.2916354882486721633389,
}

# the positive double integral D(nu, x) from the cross-term analysis
DOUBLE_INTEGRAL_TABLE = {
    (1.0, 1.0): 0.2019752096499263736164,
    (1.5, 2.0): 0.600618460360956179285,
    (3.0, 0.5): 1.629021927780834099813e-7,
    (1.0, 30.0): 2.244490415415707959063e+24,     # mass at t -> 1
    (20.0, 0.05): 3.624954655514746281503e-106,   # log prefactor -229
    (24.06, 2.4e-05): 2.274431405384814451733e-293,  # prefactor rounding ~200 eps
    # the points of test_double_integral_moments_match_tensor_sum and the corners of
    # perfbench's identity_grid
    (0.55, 30.0): 2.334438651693919031985e+25,
    (6.5, 30.0): 3.776646138918078044632e+22,
    (46.0, 220.0): 2.091223263061810827408e+182,
    (26.285, 0.519): 2.091552911075885689428e-89,
    (169.6, 192.9): 4.249950291505579312449e+100,
    (139.5, 286.3): 2.03892883443920656541e+214,
    (0.55, 0.05): 0.009594264748188304695857,
    (20.0, 30.0): 56845411215125283.48558,
    # moments about t^2 = 0 overflow at level 0; centred ones do not
    (0.5234135767924081, 352.779288606644): 1.011078244351272706794e+305,
}

# D where its bar misses its quadrature error, at the floats of the key themselves:
# D grows like e^(2x), and the decimal repr of x moves it by 3.4e-14 relative here
DOUBLE_INTEGRAL_BAR_MISSES = {
    (0.5013186950227101, 351.8120029434722): 2.601229833235242054378e+305,
}

# (nu, z) -> 1Psi1[(1/2,1/2); (nu+1,1/2) | z]
FOX_WRIGHT_TABLE = {
    (0.0, -1.0): 0.9851700705266023088124,
    (1.0, -2.0): 0.8647395866505154892798,
    (0.5, -0.25): 1.769593735428761054039,
    (2.0, -5.0): 0.269985021754953994199,
    (0.0, 1.5): 5.074332784535965135096,
}

GAMMA_TABLE = {
    0.01: 99.43258511915060371353,
    0.5: 1.772453850905516027298,
    1.0: 1.0,
    2.5: 1.329340388179137020474,
    10.0: 362880.0,
    20.5: 540624298233507504.4737,
}

DIGAMMA_TABLE = {
    0.1: -10.42375494041107679517,
    1.0: -0.5772156649015328606065,
    2.5: 0.7031566406452431872257,
    21.5: 3.044616882512524630889,
}

TRIGAMMA_TABLE = {
    0.1: 101.4332991507927588172,
    1.0: 1.644934066848226436472,
    2.5: 0.4903577561002348649728,
    21.5: 0.04761005643947913676078,
}


def _regenerate() -> None:
    """Recompute every table with mpmath and print fresh literals."""
    import mpmath as mp
    mp.mp.dps = 50

    def m_val(nu, x):
        return mp.struvel(nu, x) - mp.besseli(nu, x)

    def calm_val(nu, x):
        if x == 0:
            return mp.gamma(nu + mp.mpf(1) / 2) / mp.gamma(nu + 1)
        return (-(2 ** mp.mpf(nu)) * mp.gamma(nu + mp.mpf(1) / 2)
                * mp.mpf(x) ** (-mp.mpf(nu)) * m_val(nu, x))

    def emit(name, rows):
        print(f"{name} = {{")
        for key, val in rows:
            print(f"    {key!r}: {mp.nstr(val, 22)},")
        print("}")

    emit("M_TABLE", [(k, m_val(mp.mpf(str(k[0])), mp.mpf(str(k[1]))))
                     for k in M_TABLE])
    emit("CALM_TABLE", [(k, calm_val(mp.mpf(str(k[0])), mp.mpf(str(k[1]))))
                        for k in CALM_TABLE])
    emit("MPRIME_TABLE",
         [(k, mp.diff(lambda t, _nu=mp.mpf(str(k[0])): m_val(_nu, t),
                      mp.mpf(str(k[1])))) for k in MPRIME_TABLE])

    def slope_val(nu, x):
        # d/dt [t M_nu'(t) / M_nu(t)] with M_nu' = M_{nu-1} - (nu/t) M_nu
        nu = mp.mpf(str(nu))
        return mp.diff(lambda t: t * (m_val(nu - 1, t) - nu / t * m_val(nu, t)) / m_val(nu, t),
                       mp.mpf(str(x)))

    emit("FX31_SLOPE_TABLE", [(k, slope_val(*k)) for k in FX31_SLOPE_TABLE])
    emit("CALM_DX_TABLE",
         [(k, mp.diff(lambda t, _nu=mp.mpf(str(k[0])): calm_val(_nu, t),
                      mp.mpf(str(k[1])), k[2])) for k in CALM_DX_TABLE])
    emit("CALM_DNU_TABLE",
         [(k, mp.diff(lambda t, _x=mp.mpf(str(k[1])): calm_val(t, _x),
                      mp.mpf(str(k[0])), k[2])) for k in CALM_DNU_TABLE])
    emit("BESSEL_I_TABLE",
         [(k, mp.besseli(mp.mpf(str(k[0])), mp.mpf(str(k[1]))))
          for k in BESSEL_I_TABLE])
    emit("STRUVE_L_TABLE",
         [(k, mp.struvel(mp.mpf(str(k[0])), mp.mpf(str(k[1]))))
          for k in STRUVE_L_TABLE])

    mp.mp.dps = 60

    def d_at(nu, x):
        # the corrected relation (nu + 1/2) cross = (nu - 1/2) D - 2 I_nu L_nu that
        # identities.crossterm_double_integral_residual states, with
        # cross = I_{nu-1} L_{nu+1} + I_{nu+1} L_{nu-1} - 2 I_nu L_nu; a nested
        # mp.quad of the kernel raised ZeroDivisionError at (0.55, 30)
        nu, x = mp.mpf(str(nu)), mp.mpf(str(x))
        i_lo, i_md, i_hi = (mp.besseli(nu + k, x) for k in (-1, 0, 1))
        l_lo, l_md, l_hi = (mp.struvel(nu + k, x) for k in (-1, 0, 1))
        cross = i_lo * l_hi + i_hi * l_lo - 2 * i_md * l_md
        half = mp.mpf(1) / 2
        return ((nu + half) * cross + 2 * i_md * l_md) / (nu - half)

    def d_val(nu, x):
        # the products of I and L grow like e^(2x) and cancel: 60 + x/2.3 digits,
        # checked against 40 more
        digits = 60 + int(x / 2.3)
        low, high = (mp.workdps(digits + extra)(d_at)(nu, x) for extra in (0, 40))
        assert abs(low / high - 1) < mp.mpf(10) ** -30, (nu, x)
        return high

    emit("DOUBLE_INTEGRAL_TABLE",
         [(k, d_val(*k)) for k in DOUBLE_INTEGRAL_TABLE])
    # d_at reads str() of its arguments: exact for these mpf at 60 digits and more
    emit("DOUBLE_INTEGRAL_BAR_MISSES",
         [(k, d_val(*map(mp.mpf, k))) for k in DOUBLE_INTEGRAL_BAR_MISSES])

    def psi11(nu, z):
        nu, z = mp.mpf(str(nu)), mp.mpf(str(z))
        return mp.nsum(lambda n: mp.gamma(mp.mpf(1) / 2 + n / 2)
                       / mp.gamma(nu + 1 + n / 2) * z ** n / mp.factorial(n),
                       [0, mp.inf])

    emit("FOX_WRIGHT_TABLE", [(k, psi11(*k)) for k in FOX_WRIGHT_TABLE])
    emit("GAMMA_TABLE", [(a, mp.gamma(mp.mpf(str(a)))) for a in GAMMA_TABLE])
    emit("DIGAMMA_TABLE",
         [(a, mp.digamma(mp.mpf(str(a)))) for a in DIGAMMA_TABLE])
    emit("TRIGAMMA_TABLE",
         [(a, mp.polygamma(1, mp.mpf(str(a)))) for a in TRIGAMMA_TABLE])


if __name__ == "__main__":
    _regenerate()
