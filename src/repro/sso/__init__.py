"""Single sign-on: centralized authentication analyzed (section 2.2)."""

from .provider import (
    AUTHN_PROTOCOL,
    IdentityProvider,
    LOGIN_PROTOCOL,
    ServiceProvider,
    SsoUser,
)
from .scenario import EXPECTED_TABLES_SSO, SsoRun

__all__ = [
    "IdentityProvider",
    "ServiceProvider",
    "SsoUser",
    "AUTHN_PROTOCOL",
    "LOGIN_PROTOCOL",
    "SsoRun",
    "EXPECTED_TABLES_SSO",
]
