package repro.experiments

import repro.core._

/** T4/T5 — §4.2 speedups of PAR-* over SEQ-* across resolutions (Fig 4) and
  * the matching iteration-count ratios (Fig 5). Sequential runs honor a
  * deadline so the paper's "SEQ-CC timed out" entries degrade gracefully.
  */
object ExpSpeedup {

  final case class Row(alg: String, graph: String, resolution: Double,
                       seqSeconds: Double, parSeconds: Double,
                       seqObj: Double, parObj: Double,
                       seqIters: Int, parIters: Int, seqTimedOut: Boolean) {
    def speedup: Double    = seqSeconds / parSeconds
    def objRatio: Double   = if (seqObj == 0) Double.NaN else parObj / seqObj
    def iterRatio: Double  = parIters.toDouble / math.max(1, seqIters)
  }

  def measure(): Seq[Row] = {
    val rows = Seq.newBuilder[Row]
    for (gName <- BenchGraphs.standIns.map(_._2); lambda <- Seq(0.01, 0.25, 0.75, 0.95)) {
      val g = BenchGraphs(gName).graph
      val deadline = () => System.nanoTime() + 90L * 1_000_000_000L // SEQ stops after 90 s
      // CC
      val (sR, sT) = Timing.time(SeqLouvain.cluster(g, lambda,
        LouvainOptions(seed = 7, deadlineNanos = deadline())))
      val (pR, pT) = Timing.time(ParLouvain.cluster(g, lambda, LouvainOptions(seed = 7)))
      rows += Row("CC", gName, lambda, sT, pT,
        Objective.cc(g, sR.clusters, lambda), Objective.cc(g, pR.clusters, lambda),
        sR.numIterations, pR.numIterations, sR.timedOut)
      // MOD
      val (smR, smT) = Timing.time(SeqLouvain.clusterModularity(g, lambda,
        LouvainOptions(seed = 7, deadlineNanos = deadline())))
      val (pmR, pmT) = Timing.time(ParLouvain.clusterModularity(g, lambda, LouvainOptions(seed = 7)))
      rows += Row("MOD", gName, lambda, smT, pmT,
        Objective.modularity(g, smR.clusters, lambda), Objective.modularity(g, pmR.clusters, lambda),
        smR.numIterations, pmR.numIterations, smR.timedOut)
    }
    rows.result()
  }

  def speedupTable(rows: Seq[Row]): Table =
    Table("T4 (Fig 4): PAR over SEQ speedups and objective ratios",
      Seq("alg", "graph", "lambda", "seq_s", "par_s", "speedup", "obj_par/obj_seq", "seq_timeout"),
      rows.map(r => Seq(r.alg, r.graph, f"${r.resolution}%.2f",
        Timing.fmt(r.seqSeconds), Timing.fmt(r.parSeconds),
        if (r.seqTimedOut) ">" + f"${r.speedup}%.2f" else f"${r.speedup}%.2f",
        f"${r.objRatio}%.3f", r.seqTimedOut.toString)))

  def iterTable(rows: Seq[Row]): Table =
    Table("T5 (Fig 5): iteration-count ratio PAR/SEQ",
      Seq("alg", "graph", "lambda", "seq_iters", "par_iters", "par/seq"),
      rows.map(r => Seq(r.alg, r.graph, f"${r.resolution}%.2f",
        r.seqIters.toString, r.parIters.toString, f"${r.iterRatio}%.2f")))

  /** SEQ-CC^CON comparison on small graphs (paper: 12.55–110.25x). */
  def convergenceTable(): Table = {
    val rows = for (gName <- Seq("amazon-lite", "dblp-lite"); lambda <- Seq(0.05, 0.5)) yield {
      val g = BenchGraphs(gName).graph
      val (cR, cT) = Timing.time(SeqLouvain.cluster(g, lambda,
        LouvainOptions(seed = 7, deadlineNanos = System.nanoTime() + 240L * 1_000_000_000L).toConvergence))
      val (pR, pT) = Timing.time(ParLouvain.cluster(g, lambda, LouvainOptions(seed = 7)))
      Seq(gName, f"$lambda%.2f", Timing.fmt(cT), Timing.fmt(pT), f"${cT / pT}%.2f",
        f"${Objective.cc(g, pR.clusters, lambda) / math.max(1e-12, Objective.cc(g, cR.clusters, lambda))}%.3f",
        cR.timedOut.toString)
    }
    Table("T4b: PAR-CC over SEQ-CC^CON (run to convergence)",
      Seq("graph", "lambda", "seqcon_s", "par_s", "speedup", "obj_ratio", "seq_timeout"), rows)
  }
}
