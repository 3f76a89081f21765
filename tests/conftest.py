"""Shared pytest configuration."""

from mlosim import Strategy


def pytest_make_parametrize_id(config, val, argname):
    """Name a Strategy parameter `Strategy.NAME`, not by its string value:
    pytest would otherwise treat the str enum as a plain string."""
    if isinstance(val, Strategy):
        return str(val)
    return None
