// Seeded rank inversion without a cycle: only one path exists and it takes
// the higher-ranked lock first. mmmsa must report rank-inversion (and no
// lock-cycle — nothing takes them in the other order).
#ifndef SA_FIXTURE_RANK_INVERSION_BAD_H_
#define SA_FIXTURE_RANK_INVERSION_BAD_H_

class Inverted {
 public:
  void Publish() {
    MutexLock inner_first(high_);
    MutexLock outer_second(low_);
    ++epoch_;
  }

 private:
  Mutex low_ MMM_LOCK_RANK(10);
  Mutex high_ MMM_LOCK_RANK(20);
  int epoch_ MMM_GUARDED_BY(high_) = 0;
};

#endif  // SA_FIXTURE_RANK_INVERSION_BAD_H_
