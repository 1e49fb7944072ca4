"""Deterministic time and money arithmetic.

Timestamps are ISO-8601 UTC strings reduced to an integer minute scale so
that every duration comparison in the rule set is exact and calendar-free.
The named duration constants below are the single source of truth for the
statutory windows the rules enforce.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

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


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MINUTE = timedelta(minutes=1)

# The instants a report can print: years 1-9999 in UTC.
_FIRST_MINUTE = (datetime(1, 1, 1, tzinfo=timezone.utc) - _EPOCH) // _MINUTE
_LAST_MINUTE = (datetime(9999, 12, 31, 23, 59, tzinfo=timezone.utc) - _EPOCH) // _MINUTE


class TimestampError(ValueError):
    """Raised for a timestamp that is not a parseable ISO-8601 instant."""


class TimestampRangeError(TimestampError):
    """Raised for a well-formed instant outside years 1-9999 in UTC."""


def parse_minutes(value: str) -> int:
    """Parse an ISO-8601 instant into whole minutes since the Unix epoch.

    Accepts 'Z', an explicit offset, or a naive time (treated as UTC).
    Seconds are floored onto the minute grid. The instant must fall in
    years 1-9999 in UTC, so that every parsed value can be printed back.
    """
    if not isinstance(value, str) or not value:
        raise TimestampError(f"not a timestamp: {value!r}")
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError as exc:
        raise TimestampError(f"bad timestamp {value!r}: {exc}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    minutes = (stamp - _EPOCH) // _MINUTE
    if not _FIRST_MINUTE <= minutes <= _LAST_MINUTE:
        raise TimestampRangeError(f"timestamp {value!r} falls outside years 1-9999 in UTC")
    return minutes


def max_fine_cents(floor_cents: int, percent: int, turnover_cents: int) -> int:
    """Greater of the fixed ceiling and ``percent`` of worldwide turnover."""
    if turnover_cents < 0:
        raise ValueError("turnover must be non-negative")
    return max(floor_cents, (turnover_cents * percent) // 100)
