// Disclosure outcomes of one ECU after a vulnerability becomes public: the
// ECU is either compromised for good, retired from the fleet, or enters a
// patch cycle in which each fix is later bypassed. The chain is reducible:
// two absorbing outcomes and one recurrent cycle, so the long-run answer
// depends on where the ECU is absorbed. From s=0 the ECU is exposed in the
// long run with probability 3/8 (compromised) + 4/8 * 2/(2+6) (the cycle's
// exposed share) = 0.5.
ctmc

const double compromise = 3; // exploited before any fix ships
const double retire = 1;     // taken out of service
const double enter = 4;      // first patch shipped
const double bypass = 2;     // patched ECU exploited again
const double fix = 6;        // exploited ECU patched again

module ecu
  // 0 disclosed, 1 compromised for good, 2 retired, 3 patched, 4 exploited
  s : [0..4] init 0;
  [] s=0 -> compromise : (s'=1);
  [] s=0 -> retire : (s'=2);
  [] s=0 -> enter : (s'=3);
  [] s=3 -> bypass : (s'=4);
  [] s=4 -> fix : (s'=3);
endmodule

label "exposed" = s=1 | s=4;
