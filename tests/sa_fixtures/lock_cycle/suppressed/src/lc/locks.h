// The bad variant with MMMSA suppressions on every acquisition site: all
// lock-order findings must vanish.
#ifndef SA_FIXTURE_LOCK_CYCLE_SUPPRESSED_H_
#define SA_FIXTURE_LOCK_CYCLE_SUPPRESSED_H_

class Tangle {
 public:
  void f() {
    MutexLock first(a_);
    // MMMSA(lock-order): seeded fixture, inversion is the point
    MutexLock second(b_);
    ++work_;
  }

  void g() {
    MutexLock first(b_);
    // MMMSA(lock-order): seeded fixture, inversion is the point
    MutexLock second(a_);
    ++work_;
  }

 private:
  Mutex a_ MMM_LOCK_RANK(10);
  Mutex b_ MMM_LOCK_RANK(20);
  int work_ MMM_GUARDED_BY(b_) = 0;
};

#endif  // SA_FIXTURE_LOCK_CYCLE_SUPPRESSED_H_
