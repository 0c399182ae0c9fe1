// The paper's analytic locality model (section 3.1).
//
// Program execution time is modeled as
//     Tnuma = Tlocal * ((1 - beta) + beta * (alpha + (1 - alpha) * G/L))      (eq. 2)
// with two sensitivity factors:
//     alpha — fraction of references to writable data that were made to local pages
//             under the NUMA placement strategy ("resembles a cache hit ratio");
//     beta  — fraction of total user run time devoted to referencing writable data if
//             all memory were local.
// Substituting the all-global run (alpha = 0) and solving the two equations yields
//     alpha = (Tglobal - Tnuma)   / (Tglobal - Tlocal)                        (eq. 4)
//     beta  = ((Tglobal - Tlocal) / Tlocal) * (L / (G - L))                   (eq. 5)
// and the "user-time expansion factor"
//     gamma = Tnuma / Tlocal.                                                 (eq. 1)

#ifndef SRC_METRICS_MODEL_H_
#define SRC_METRICS_MODEL_H_

#include <cmath>

namespace ace {

struct ModelParams {
  double alpha = 0.0;
  double beta = 0.0;
  double gamma = 1.0;
  // False when alpha is undefined, printed "na" (as the paper prints it for ParMult):
  // the application makes (essentially) no data references, or Tnuma lies outside
  // [Tlocal, Tglobal], where eq. 4 has no meaning as a fraction.
  bool alpha_defined = true;
};

// Solve the model given the three measured user times and the G/L ratio appropriate
// for the application's reference mix.
inline ModelParams SolveModel(double t_numa, double t_global, double t_local,
                              double gl_ratio) {
  ModelParams p;
  p.gamma = t_local > 0.0 ? t_numa / t_local : 1.0;
  double denom = t_global - t_local;
  // When Tglobal ~= Tlocal (within half a percent) the program makes no measurable use
  // of writable memory; beta is ~0 and alpha is undefined (ParMult's row in Table 3).
  if (t_local <= 0.0 || denom <= 0.005 * t_local) {
    p.alpha_defined = false;
    p.alpha = 0.0;
    p.beta = 0.0;
    return p;
  }
  p.beta = (denom / t_local) * (1.0 / (gl_ratio - 1.0));
  // Eq. 4 assumes the NUMA placement lands between its two bounds. A run slower than
  // all-global (say, under a fault plan) or faster than all-local has no alpha.
  if (t_numa < t_local || t_numa > t_global) {
    p.alpha_defined = false;
    return p;
  }
  p.alpha = (t_global - t_numa) / denom;
  return p;
}

// Forward prediction (eq. 2), used by tests to check model self-consistency.
inline double PredictTnuma(double t_local, double alpha, double beta, double gl_ratio) {
  return t_local * ((1.0 - beta) + beta * (alpha + (1.0 - alpha) * gl_ratio));
}

}  // namespace ace

#endif  // SRC_METRICS_MODEL_H_
