package repro.util

/** Dense int→double accumulator over the keys `[0, universe)` with O(used)
  * clear: the edge weight from one vertex (BEST-MOVES, SCD) or one cluster
  * (compression) to each neighboring cluster. `slot` maps a key to its entry
  * (−1 if absent), so each add is one array read, with no hashing or probing;
  * the same trade as PLM's "turbo" mode. Each worker owns one instance
  * (allocation-free steady state); entries are read back in insertion order
  * with `keyAt` and `valueAt`.
  */
final class IntDoubleMap(universe: Int) {
  private val slot                 = { val a = new Array[Int](universe); java.util.Arrays.fill(a, -1); a }
  private var keys: Array[Int]     = new Array[Int](16)
  private var vals: Array[Double]  = new Array[Double](16)
  private var nUsed                = 0

  def size: Int = nUsed

  /** Add `v` to the value stored for `k`: the first add stores `v`, later adds
    * sum in call order.
    */
  def addTo(k: Int, v: Double): Unit = {
    val s = slot(k)
    if (s >= 0) vals(s) += v
    else {
      if (nUsed == keys.length) {
        keys = java.util.Arrays.copyOf(keys, 2 * nUsed); vals = java.util.Arrays.copyOf(vals, 2 * nUsed)
      }
      slot(k) = nUsed; keys(nUsed) = k; vals(nUsed) = v; nUsed += 1
    }
  }

  def getOrElse(k: Int, default: Double): Double = {
    val s = slot(k)
    if (s >= 0) vals(s) else default
  }

  /** Key of the `i`-th inserted entry, 0 ≤ i < size (insertion order). */
  def keyAt(i: Int): Int = keys(i)

  /** Value of the `i`-th inserted entry, 0 ≤ i < size (insertion order). */
  def valueAt(i: Int): Double = vals(i)

  /** Reset to empty in O(entries): only the used slots are cleared. */
  def clear(): Unit = {
    var i = 0
    while (i < nUsed) { slot(keys(i)) = -1; i += 1 }
    nUsed = 0
  }
}
