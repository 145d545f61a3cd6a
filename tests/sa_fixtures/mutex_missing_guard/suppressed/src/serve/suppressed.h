// Fixture: either an MMM_GUARDED_BY annotation or a justified suppression
// satisfies the rule.
#pragma once

class Mutex;

#define MMM_GUARDED_BY(x)

class Annotated {
 private:
  Mutex mu_ MMM_LOCK_RANK(10);
  int count_ MMM_GUARDED_BY(mu_) = 0;
};

class Suppressed {
 private:
  Mutex mu_ MMM_LOCK_RANK(20);  // MMMSA(mutex-missing-guard): guards a C library
};
