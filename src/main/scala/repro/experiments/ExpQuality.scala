package repro.experiments

import repro.core._
import repro.eval.Metrics

/** T9 — §4.3 quality vs ground truth (Figs 9/14): average precision/recall
  * of PAR-CC, SEQ-CC (num_iter=10), SEQ-CC^CON, PAR-MOD, SEQ-MOD^CON over
  * resolution sweeps, against the top ground-truth communities.
  */
object ExpQuality {

  /** λ sweep for CC (paper: {0.01x}); γ sweep for MOD (paper: 0.02·1.2^x). */
  val ccLambdas: Seq[Double]  = Seq(0.01, 0.03, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9)
  val modGammas: Seq[Double]  = Seq(0.05, 0.12, 0.3, 0.7, 1.7, 4.0, 10.0, 25.0, 60.0)

  def table(): Table = {
    val rows = Seq.newBuilder[Seq[String]]
    for (gName <- BenchGraphs.qualitySet) {
      val gt = BenchGraphs(gName)
      val comms = gt.communities.map(identity)
      def pr(cl: Array[Int]) = Metrics.averagePrecisionRecall(comms, cl) // SNAP's top 5000
      for (l <- ccLambdas) {
        val par  = ParLouvain.cluster(gt.graph, l, LouvainOptions(seed = 3)).clusters
        val seq  = SeqLouvain.cluster(gt.graph, l, LouvainOptions(seed = 3)).clusters
        val con  = SeqLouvain.cluster(gt.graph, l, LouvainOptions(seed = 3).toConvergence).clusters
        val (pp, ps, pc) = (pr(par), pr(seq), pr(con))
        rows += Seq(gName, "CC", f"$l%.2f",
          f"${pp.precision}%.3f", f"${pp.recall}%.3f",
          f"${ps.precision}%.3f", f"${ps.recall}%.3f",
          f"${pc.precision}%.3f", f"${pc.recall}%.3f")
      }
      for (gamma <- modGammas) {
        val par = ParLouvain.clusterModularity(gt.graph, gamma, LouvainOptions(seed = 3)).clusters
        val con = SeqLouvain.clusterModularity(gt.graph, gamma, LouvainOptions(seed = 3).toConvergence).clusters
        val (pp, pc) = (pr(par), pr(con))
        rows += Seq(gName, "MOD", f"$gamma%.2f",
          f"${pp.precision}%.3f", f"${pp.recall}%.3f",
          "-", "-",
          f"${pc.precision}%.3f", f"${pc.recall}%.3f")
      }
    }
    Table("T9 (Fig 9/14): avg precision/recall vs ground truth",
      Seq("graph", "obj", "resolution", "par_P", "par_R", "seq10_P", "seq10_R", "seqcon_P", "seqcon_R"),
      rows.result())
  }
}
