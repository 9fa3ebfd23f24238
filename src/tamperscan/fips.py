"""FIPS code helpers: normalization and the state-prefix lookup table."""

from __future__ import annotations

from .errors import DataError

# ANSI two-digit state FIPS prefixes for the 50 states plus DC.
STATE_BY_FIPS_PREFIX = {
    "01": "AL", "02": "AK", "04": "AZ", "05": "AR", "06": "CA",
    "08": "CO", "09": "CT", "10": "DE", "11": "DC", "12": "FL",
    "13": "GA", "15": "HI", "16": "ID", "17": "IL", "18": "IN",
    "19": "IA", "20": "KS", "21": "KY", "22": "LA", "23": "ME",
    "24": "MD", "25": "MA", "26": "MI", "27": "MN", "28": "MS",
    "29": "MO", "30": "MT", "31": "NE", "32": "NV", "33": "NH",
    "34": "NJ", "35": "NM", "36": "NY", "37": "NC", "38": "ND",
    "39": "OH", "40": "OK", "41": "OR", "42": "PA", "44": "RI",
    "45": "SC", "46": "SD", "47": "TN", "48": "TX", "49": "UT",
    "50": "VT", "51": "VA", "53": "WA", "54": "WV", "55": "WI",
    "56": "WY",
}

FIPS_PREFIX_BY_STATE = {v: k for k, v in STATE_BY_FIPS_PREFIX.items()}


def normalize_fips(raw: str) -> str:
    """Zero-pad a county FIPS code to its canonical 5-character form.

    The one rule for a code: 1 to 5 ASCII digits once the surrounding blanks
    are stripped. str.isdigit() alone would also pass full-width digits and
    superscripts such as '²'.
    """
    code = raw.strip()
    if not (code.isascii() and code.isdigit()) or len(code) > 5:
        raise DataError(f"invalid FIPS code {raw!r}")
    return code.zfill(5)


def state_for_fips(fips: str) -> str | None:
    """Two-letter state for a county FIPS code, or None if unknown."""
    return STATE_BY_FIPS_PREFIX.get(fips[:2])
