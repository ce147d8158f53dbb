"""cqrate: entropic quantities, constrained channel optimization and
rate-region geometry for distributed compression of classical-quantum
sources."""

__version__ = "0.1.0"
