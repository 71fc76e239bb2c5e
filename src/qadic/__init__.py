"""Exact symbolic and numerical workbench for the dyadic shift/translation algebra."""
