"""Fixture module: the other half of the import/call cycle."""

from .alpha import ping_pong


def ping():
    return pong()


def pong():
    return ping_pong()         # → alpha.ping_pong → ping: a 3-cycle


def clean(shape):
    return list(shape)         # builtin: unresolvable, recorded external
