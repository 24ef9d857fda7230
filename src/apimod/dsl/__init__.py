"""Textual model formats: lexer, parsers, canonical printers."""

from .lexer import tokenize
from .parser import (
    ParseResult, parse_api_descriptor, parse_goal_model, parse_metric_catalog,
    parse_model, parse_scenario, parse_value_model, quote_name,
)
from .printer import (
    print_api_descriptor, print_goal_model, print_metric_catalog, print_model,
    print_scenario, print_value_model,
)

__all__ = [
    "ParseResult", "parse_api_descriptor", "parse_goal_model",
    "parse_metric_catalog", "parse_model", "parse_scenario",
    "parse_value_model", "print_api_descriptor", "print_goal_model",
    "print_metric_catalog", "print_model", "print_scenario",
    "print_value_model", "tokenize", "quote_name",
]
