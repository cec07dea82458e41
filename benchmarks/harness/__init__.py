"""One benchmark for the whole node.

Six workloads drive real SQL through a server subprocess and
``repro.client.Client``; an untraced run gives the end-to-end metrics and a
traced run of the same statement stream says which layer the time went to.
See ``README.md`` in this directory.
"""
