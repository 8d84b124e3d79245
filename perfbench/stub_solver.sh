#!/bin/sh
# Stand-in SMT-LIB 2 solver for the benchmark: reads a script on stdin and
# answers "unknown", so a synthesis search runs every cell to its end.  A
# script without (check-sat) gets an (error ...) line instead, so malformed
# emission shows up as a failed operation.
if grep -F -q '(check-sat)'; then
  echo unknown
else
  echo '(error "script has no (check-sat)")'
fi
