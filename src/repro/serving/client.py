"""Blocking stdlib client for the serving front end.

A thin wrapper over :mod:`http.client` — the counterpart to the
hand-rolled server in :mod:`repro.serving.server`, used by the
``cirank client`` CLI subcommand, the load generator, and the serving
tests.  Synchronous on purpose: callers that want concurrency run many
clients across threads (the load generator does exactly that), which
also exercises the server's connection handling more honestly than one
multiplexed client would.

The client keeps one persistent connection (HTTP keep-alive) and
retries once on a dropped connection — enough to survive a server-side
idle close without papering over real failures.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, Optional

from ..exceptions import ServingError


class ServingRequestFailed(ServingError):
    """The server answered with a non-2xx status.

    Attributes:
        status: the HTTP status code.
        payload: the decoded error document (``{"error": ...}``).
    """

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class ServingClient:
    """Talk to a running :class:`~repro.serving.server.ServingServer`.

    Usable as a context manager; safe to use from one thread at a time.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8377,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Drop the persistent connection (reopened on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # ------------------------------------------------------------ endpoints

    def search(
        self,
        query: str,
        k: Optional[int] = None,
        diameter: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """``POST /search``; returns the answer document."""
        payload: Dict[str, Any] = {"query": query}
        if k is not None:
            payload["k"] = k
        if diameter is not None:
            payload["diameter"] = diameter
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        return self._request("POST", "/search", payload)

    def stats(self) -> Dict[str, Any]:
        """``GET /stats``."""
        return self._request("GET", "/stats")

    def health(self) -> Dict[str, Any]:
        """``GET /health``."""
        return self._request("GET", "/health")

    def metrics(self) -> str:
        """``GET /metrics`` — raw Prometheus text exposition."""
        return self._request("GET", "/metrics", raw=True)

    def slow_queries(self) -> Dict[str, Any]:
        """``GET /slow`` — recent slow-query span trees."""
        return self._request("GET", "/slow")

    def shutdown(self) -> Dict[str, Any]:
        """``POST /shutdown`` — ask the server to drain and exit."""
        return self._request("POST", "/shutdown")

    # ------------------------------------------------------------- internal

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        raw: bool = False,
    ) -> Any:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            return self._roundtrip(method, path, body, headers, raw)
        except (
            http.client.NotConnected,
            http.client.BadStatusLine,
            http.client.CannotSendRequest,
            ConnectionError,
        ):
            # The persistent connection died (server restarted, idle
            # close); reconnect once and retry.
            self.close()
            return self._roundtrip(method, path, body, headers, raw)

    def _roundtrip(self, method, path, body, headers, raw_text=False) -> Any:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        raw = response.read()
        if response.will_close:
            self.close()
        if raw_text and 200 <= response.status < 300:
            # Non-JSON endpoints (/metrics): hand back the body verbatim.
            return raw.decode("utf-8")
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServingError(
                f"undecodable response (HTTP {response.status}): {exc}"
            )
        if not 200 <= response.status < 300:
            raise ServingRequestFailed(response.status, decoded)
        return decoded
