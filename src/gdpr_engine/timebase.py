"""Deterministic time and money arithmetic.

Timestamps are ISO-8601 UTC strings reduced to an integer minute scale so
that every duration comparison in the rule set is exact and calendar-free.
The named duration constants below are the single source of truth for the
statutory windows the rules enforce.
"""

from __future__ import annotations

import re
from datetime import date, datetime, timedelta

MINUTES_PER_HOUR = 60
MINUTES_PER_DAY = 24 * MINUTES_PER_HOUR

# Art. 33: supervisory authority must be notified of a breach within 72 hours.
BREACH_NOTIFICATION_MINUTES = 72 * MINUTES_PER_HOUR

# Art. 12: requests answered within one month (30 days), extensible by two
# further months (60 additional days) when the subject is told about it.
REQUEST_RESPONSE_MINUTES = 30 * MINUTES_PER_DAY
REQUEST_EXTENSION_MINUTES = 60 * MINUTES_PER_DAY

# Art. 36: written advice within eight weeks (56 days), extensible by six
# weeks (42 days) with notification.
CONSULTATION_ADVICE_MINUTES = 56 * MINUTES_PER_DAY
CONSULTATION_EXTENSION_MINUTES = 42 * MINUTES_PER_DAY

# Art. 42: a certification is valid for three years (1095 days).
CERTIFICATION_VALIDITY_MINUTES = 1095 * MINUTES_PER_DAY

# Art. 83 fine ceilings. Money is integer euro cents throughout.
FINE_TIER1_FLOOR_CENTS = 10_000_000 * 100
FINE_TIER1_TURNOVER_PERCENT = 2
FINE_TIER2_FLOOR_CENTS = 20_000_000 * 100
FINE_TIER2_TURNOVER_PERCENT = 4


_EPOCH = datetime(1970, 1, 1)
_EPOCH_DAY = _EPOCH.toordinal()

# The instants a report can print: years 1-9999 in UTC.
_FIRST_MINUTE = (1 - _EPOCH_DAY) * MINUTES_PER_DAY
_LAST_MINUTE = (date.max.toordinal() + 1 - _EPOCH_DAY) * MINUTES_PER_DAY - 1


class TimestampError(ValueError):
    """Raised for a timestamp that is not a parseable ISO-8601 instant."""


class TimestampRangeError(TimestampError):
    """Raised for a well-formed instant outside years 1-9999 in UTC."""


# The one timestamp grammar, read after surrounding whitespace is stripped:
# what every supported Python's datetime.fromisoformat accepted once a final Z
# was read as +00:00, with a fraction of any length (see README).
_TIMESTAMP = re.compile(r"""
    ([0-9]{4}-[0-9]{2}-[0-9]{2})
    (?:.([01][0-9]|2[0-3])(?::([0-5][0-9])(?::([0-5][0-9]))?)?  # any one character, a time
       (?:(?(4)[.:]|\.)([0-9]+)                      # a fraction, after ':' only past seconds
        |(?![+\-Z])[\x00-\x7f](?=[-+Zz])|\x00\Z)?    # or a stray character, or a final NUL
       (?:([+-])([0-9]{2}):([0-9]{2})(?::([0-9]{2})(?:[.:]([0-9]+))?)?|[Zz])?  # an offset
     |[Zz])?""", re.VERBOSE | re.DOTALL)  # or a Z right after the date


def _microseconds(digits: str | None) -> int:
    return int(digits[:6].ljust(6, "0")) if digits else 0  # past the sixth digit, cut


def parse_minutes(value: str) -> int:
    """Minutes since the Unix epoch, floored, of an ISO-8601 instant in the
    grammar of ``_TIMESTAMP`` (UTC when it has no offset) that falls in years
    1-9999 in UTC, so that every parsed value can be printed back."""
    if not isinstance(value, str) or not value:
        raise TimestampError(f"not a timestamp: {value!r}")
    text = value.strip()
    match = _TIMESTAMP.fullmatch(text)
    if match is None:
        raise TimestampError(f"bad timestamp {value!r}: Invalid isoformat string: {text!r}")
    day, hour, minute, second, fraction, sign, *offset = match.groups()
    try:  # every supported Python reads a YYYY-MM-DD date alike
        days = date.fromisoformat(day).toordinal() - _EPOCH_DAY
    except ValueError as exc:
        raise TimestampError(f"bad timestamp {value!r}: {exc}") from exc
    minutes = (days * 24 + int(hour or 0)) * 60 + int(minute or 0)
    if sign is not None:
        whole = (int(offset[0]) * 60 + int(offset[1])) * 60 + int(offset[2] or 0)
        if whole >= 86_400:
            raise TimestampError(f"bad timestamp {value!r}: its offset is 24 hours or more")
        if whole:  # an offset of no whole seconds is UTC, whatever its fraction
            shift = whole * 1_000_000 + _microseconds(offset[3])
            minutes += (int(second or 0) * 1_000_000 + _microseconds(fraction)
                        + (shift if sign == "-" else -shift)) // 60_000_000
    if not _FIRST_MINUTE <= minutes <= _LAST_MINUTE:
        raise TimestampRangeError(f"timestamp {value!r} falls outside years 1-9999 in UTC")
    return minutes


def minutes_to_iso(minutes: int) -> str:
    """``YYYY-MM-DDTHH:MM:SSZ`` for ``minutes`` after the epoch, read back by ``parse_minutes``;
    isoformat pads the year to four digits, where glibc's strftime ``%Y`` does not."""
    return (_EPOCH + timedelta(minutes=minutes)).isoformat(timespec="seconds") + "Z"


def max_fine_cents(floor_cents: int, percent: int, turnover_cents: int) -> int:
    """Greater of the fixed ceiling and ``percent`` of a non-negative turnover."""
    return max(floor_cents, (turnover_cents * percent) // 100)
