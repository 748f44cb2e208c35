package repro.util

import java.util.concurrent.atomic.AtomicLongArray
import java.util.concurrent.{Callable, ExecutorService, Executors}

/** Shared-memory parallel primitives used by the PAR-* implementations.
  *
  * The paper runs on a 30-core machine with a work-stealing scheduler; here we
  * use a fixed thread pool whose size is controllable per call so the Fig-7
  * thread-scaling experiment can sweep 1..16 threads deterministically.
  */
object Parallel {

  /** Default parallelism: all available cores. */
  val defaultThreads: Int = Runtime.getRuntime.availableProcessors()

  // One lazily-created pool per requested size. Pools are tiny; a handful of
  // sizes (1,2,4,8,16) are ever requested.
  private val pools = new java.util.concurrent.ConcurrentHashMap[Int, ExecutorService]()

  private def pool(threads: Int): ExecutorService =
    pools.computeIfAbsent(threads, t => Executors.newFixedThreadPool(t, r => {
      val th = new Thread(r); th.setDaemon(true); th
    }))

  /** Parallel for over `[0, n)`; blocks until done. */
  def forRange(n: Int, threads: Int = defaultThreads)(body: Int => Unit): Unit =
    forWorkers(n, threads)((_, i) => body(i))

  /** Parallel for over `[0, n)` with `threads` workers; `body(worker, i)`
    * gets the index of the worker running it, in `[0, threads)`, and no two
    * bodies with the same worker index run at once, so `worker` can pick the
    * caller's per-worker scratch. The sequential path runs as worker 0.
    * Work is split into `threads * 8` contiguous chunks for load balance
    * (a poor-man's work stealing: stragglers pick up remaining chunks).
    */
  def forWorkers(n: Int, threads: Int = defaultThreads)(body: (Int, Int) => Unit): Unit = {
    if (n <= 0) return
    if (threads <= 1 || n < 512) { var i = 0; while (i < n) { body(0, i); i += 1 }; return }
    val chunks    = math.min(n, threads * 8)
    val chunkSize = (n + chunks - 1) / chunks
    val next      = new java.util.concurrent.atomic.AtomicInteger(0)
    val tasks     = new java.util.ArrayList[Callable[Unit]](threads)
    for (w <- 0 until threads) tasks.add { () =>
      var c = next.getAndIncrement()
      while (c < chunks) {
        val lo = c * chunkSize
        val hi = math.min(n, lo + chunkSize)
        var i = lo
        while (i < hi) { body(w, i); i += 1 }
        c = next.getAndIncrement()
      }
    }
    val futures = pool(threads).invokeAll(tasks)
    futures.forEach(_.get()) // propagate exceptions
  }

  // Blocks per worker of `blocks`: a few, so a worker that falls behind
  // leaves its last blocks to the others.
  private val BlocksPerThread = 4

  /** Cut points 0 = cuts(0) < … < cuts(B) = n of B ≤ threads·BlocksPerThread
    * contiguous blocks of about equal work, where index i costs
    * `prefix(i + 1) - prefix(i) + 1`; `prefix` is nondecreasing with n + 1
    * entries. No block is empty, so an index whose work exceeds a block's
    * share gets a block to itself. One thread gets the one block [0, n).
    */
  def blocks(prefix: Array[Int], n: Int, threads: Int): Array[Int] = {
    if (n <= 0) return Array(0)
    val want = if (threads <= 1) 1 else threads * BlocksPerThread
    if (want == 1) return Array(0, n)
    val base  = prefix(0).toLong
    val total = prefix(n) - base + n
    val cuts  = Array.newBuilder[Int]; cuts += 0
    var lo = 0; var last = 0
    var b  = 1
    while (b < want) {
      // The first index whose work before it reaches b/want of the total.
      val target = total * b / want
      var hi = n
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (prefix(mid) - base + mid < target) lo = mid + 1 else hi = mid }
      if (lo > last && lo < n) { cuts += lo; last = lo }
      b += 1
    }
    cuts += n
    cuts.result()
  }

  /** Runs `body(worker, b)` once for each block b of `cuts` (as made by
    * [[blocks]]), the indices `[cuts(b), cuts(b + 1))`. Workers claim blocks
    * in ascending order; `worker` is in `[0, threads)`, and no two bodies with
    * the same worker index run at once. One thread or one block runs inline
    * on the caller as worker 0.
    */
  def forBlocks(cuts: Array[Int], threads: Int)(body: (Int, Int) => Unit): Unit = {
    val nb = cuts.length - 1
    if (threads <= 1 || nb <= 1) { var b = 0; while (b < nb) { body(0, b); b += 1 }; return }
    val next  = new java.util.concurrent.atomic.AtomicInteger(0)
    val tasks = new java.util.ArrayList[Callable[Unit]](threads)
    for (w <- 0 until math.min(threads, nb)) tasks.add { () =>
      var b = next.getAndIncrement()
      while (b < nb) { body(w, b); b = next.getAndIncrement() }
    }
    pool(threads).invokeAll(tasks).forEach(_.get()) // propagate exceptions
  }
}

/** Atomic array of doubles built on CAS over raw long bits — the paper's
  * "separate atomic operations to update the total vertex weight" with no
  * locks and relaxed consistency. Serializable, so GX-CC can broadcast a
  * level's cluster weights to the move rule.
  */
final class AtomicDoubleArray(val length: Int) extends Serializable {
  private val bits = new AtomicLongArray(length)

  /** Opaque read: atomic, but unordered with respect to other variables. */
  def get(i: Int): Double = java.lang.Double.longBitsToDouble(bits.getOpaque(i))

  /** Lock-free add; loops on CAS failure. */
  def add(i: Int, delta: Double): Unit = {
    var done = false
    while (!done) {
      val cur  = bits.get(i)
      val next = java.lang.Double.doubleToRawLongBits(java.lang.Double.longBitsToDouble(cur) + delta)
      done = bits.compareAndSet(i, cur, next)
    }
  }
}
