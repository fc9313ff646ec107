from staircase.textio.printer import print_module
from staircase.textio.parser import parse_module

__all__ = ["print_module", "parse_module"]
