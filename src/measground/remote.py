"""The one path to a remote service: a JSON POST and its retry policy.

Connection errors, timeouts and HTTP 5xx, 408 and 429 are transient and retried ``MAX_RETRIES``
times, at once; any other HTTP 4xx, or an endpoint requests refuses to send to, raises IoFailure
at once. requests is imported inside ``post_json``: its import takes over 100 ms, which the mock
and exact-match clients never need.
"""

from __future__ import annotations

import logging

from .errors import IoFailure

log = logging.getLogger(__name__)

MAX_RETRIES = 3
TIMEOUT_S = 30.0


def post_json(endpoint: str, payload: dict, unavailable: type, malformed: type) -> dict:
    """POST ``payload`` and return the JSON object of a 200 response. A transient failure
    raises ``unavailable``, a permanent one IoFailure, and a body that is no JSON object ``malformed``."""
    import requests
    from requests.exceptions import InvalidSchema, InvalidURL, MissingSchema

    try:
        response = requests.post(endpoint, json=payload, timeout=TIMEOUT_S)
    except (MissingSchema, InvalidSchema, InvalidURL) as exc:
        raise IoFailure(f"{endpoint}: {exc}") from exc
    except requests.RequestException as exc:
        raise unavailable(f"{endpoint}: {exc}") from exc
    status = response.status_code
    if 400 <= status < 500 and status not in (408, 429):
        raise IoFailure(f"{endpoint}: HTTP {status}")
    if status != 200:
        raise unavailable(f"{endpoint}: HTTP {status}")
    try:  # outside the transport try: requests' JSONDecodeError is a RequestException
        body = response.json()
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply to parse
        raise malformed(f"{endpoint}: non-JSON response") from exc
    if not isinstance(body, dict):
        raise malformed(f"{endpoint}: expected a JSON object")
    return body


def with_retries(call, transient: type[Exception], label: str):
    """``call()``, called again at once up to ``MAX_RETRIES`` times while it raises ``transient``."""
    for retry in range(1, MAX_RETRIES + 1):
        try:
            return call()
        except transient as exc:
            log.info("%s retry %d: %s", label, retry, exc)
    return call()
