"""Frozen reference expansions used by the acceptance suite and the golden
tests.  Monomials are written in the short notation (digit plus primes for
each further block of eight), with an explicit leading sign."""

from __future__ import annotations

from fractions import Fraction

from .forms import KForm, parse_monomial_token

# Kaehler forms of the ten compositions of the five R^8 involutions,
# keyed by the composition pair.
THETA_TABLE = {
    (0, 1): "-12 +34 +56 -78",
    (0, 2): "-13 -24 +57 +68",
    (0, 3): "-14 +23 +58 -67",
    (1, 2): "-14 +23 -58 +67",
    (1, 3): "+13 +24 +57 +68",
    (2, 3): "-12 +34 -56 +78",
    (0, 4): "-15 -26 -37 -48",
    (1, 4): "-16 +25 +38 -47",
    (2, 4): "-17 -28 +35 +46",
    (3, 4): "-18 +27 -36 +45",
}

# First half of tau_2 of the theta matrix; the full form adds the Hodge
# star of every listed term.
TAU2_THETA_HALF = "-12*1234 -4*1256 -4*1357 +4*1368 -4*1278 -4*1467 -4*1458"

# The quarter of tau_2 of the eight-generator family: 112 unit monomials.
SPIN8_EXPANSION = """
+121'2' +123'4' +125'6' -127'8' +341'2' +343'4' -345'6'
+347'8' +561'2' -563'4' +565'6' +567'8' -781'2' +783'4' +785'6' +787'8' +131'3' -132'4'
+135'7' +136'8' -241'3' +242'4' +245'7' +246'8' +571'3' +572'4' +575'7' -576'8' +681'3'
+682'4' -685'7' +686'8' +141'4' +142'3' +145'8' -146'7' +231'4' +232'3' -235'8' +236'7'
+581'4' -582'3' +585'8' +586'7' -671'4' +672'3' +675'8' +676'7' +151'5' -152'6' -153'7'
-154'8' -261'5' +262'6' -263'7' -264'8' -371'5' -372'6' +373'7' -374'8' -481'5' -482'6'
-483'7' +484'8' +161'6' +162'5' -163'8' +164'7' +251'6' +252'5' +253'8' -254'7' -381'6'
+382'5' +383'8' +384'7' +471'6' -472'5' +473'8' +474'7' +171'7' +172'8' +173'5' -174'6'
+281'7' +282'8' -283'5' +284'6' +351'7' -352'8' +353'5' +354'6' -461'7' +462'8' +463'5'
+464'6' +181'8' -182'7' +183'6' +184'5' -271'8' +272'7' +273'6' +274'5' +361'8' +362'7'
+363'6' -364'5' +451'8' +452'7' -453'6' +454'5'
"""

# Pieces of the printed seven-generator identity:
# tau2(psiA) = (6/4) tau2(psiB) + 6*[FOURSOME] - 3*[BRACKET1]^2
#              - 3*[BRACKET2]^2 - 6*[BRACKET3]
PSI_A_FOURSOME = "+1234 +5678 +1'2'3'4' +5'6'7'8'"
PSI_A_BRACKET1 = "+15 +26 +37 +48"
PSI_A_BRACKET2 = "+1'5' +2'6' +3'7' +4'8'"
PSI_A_BRACKET3 = (
    "+1278 -1368 +1467 +2358 -2457 +3456 "
    "+1'2'7'8' -1'3'6'8' +1'4'6'7' +2'3'5'8' -2'4'5'7' +3'4'5'6'"
)


def parse_signed_tokens(text: str, n: int, k: int) -> KForm:
    """KForm from whitespace-separated tokens like -12*1234 or +341'2'."""
    terms = []
    for token in text.split():
        sign = -1 if token[0] == "-" else 1
        if token[0] in "+-":
            token = token[1:]
        mag, _, token = token.rpartition("*")
        terms.append((parse_monomial_token(token), sign * int(mag or 1)))
    return KForm.from_terms(n, k, terms)


def theta_form(pair: tuple[int, int]) -> KForm:
    return parse_signed_tokens(THETA_TABLE[pair], 8, 2)


def tau2_theta_printed() -> KForm:
    from .forms import hodge_star

    half = parse_signed_tokens(TAU2_THETA_HALF, 8, 4)
    return half + hodge_star(half)


def spin8_printed() -> KForm:
    return parse_signed_tokens(SPIN8_EXPANSION, 16, 4)


def psi_a_identity_rhs(tau2_psi_b: KForm) -> KForm:
    foursome = parse_signed_tokens(PSI_A_FOURSOME, 16, 4)
    b1 = parse_signed_tokens(PSI_A_BRACKET1, 16, 2)
    b2 = parse_signed_tokens(PSI_A_BRACKET2, 16, 2)
    b3 = parse_signed_tokens(PSI_A_BRACKET3, 16, 4)
    return (
        tau2_psi_b.scale(Fraction(6, 4))
        + foursome.scale(6)
        - b1.wedge_square().scale(3)
        - b2.wedge_square().scale(3)
        - b3.scale(6)
    )


def pure_part(form: KForm) -> KForm:
    """Terms whose indices lie entirely in 1..8 or entirely in 9..16."""
    low = 0xFF
    acc = {}
    for mask, c in form.mask_items():
        if (mask & low) == mask or (mask & ~low) == mask:
            acc[mask] = c
    return KForm(form.n, form.k, acc)
