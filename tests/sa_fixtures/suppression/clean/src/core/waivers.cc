// Fixture: prose about the suppression syntax is not a suppression. The
// placeholder form `MMMSA(<check-or-rule>): <reason>`, a name without a
// colon such as MMMSA(naked-delete), and MMMSA(Naked-Delete): in the wrong
// case are all silent.
struct Widget {
  int value = 0;
};

void Destroy(Widget* w) {
  delete w;  // MMMSA(naked-delete): fixture owns the raw pointer
}
