"""Serve a fresh store for a test: the one place tests open, serve, and
close a :class:`~repro.db.MayBMS` behind a
:class:`~repro.server.MayBMSServer`."""

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.db import MayBMS
from repro.server import MayBMSServer


@contextmanager
def serve(
    path: Optional[str] = None, seed: int = 0, **server_kwargs
) -> Iterator[MayBMSServer]:
    """A started server over a new store (durable under ``path``, else
    in-memory); on exit the server stops, then the store closes."""
    with MayBMS(seed=seed, path=path) as db:
        server = MayBMSServer(db, **server_kwargs).start()
        try:
            yield server
        finally:
            server.close()
